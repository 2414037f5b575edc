package al

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// equivLoop is the shared configuration of the m = n trace-equivalence
// runs: every tier fits hyperparameters on the full training set (the
// subsample covers all rows), the sparse tier's inducing set covers every
// training point, and its Kmm jitter is pushed down to keep the exact
// dense reduction inside the 1e-8 tolerance.
func equivLoop(model string, workers int) LoopConfig {
	return LoopConfig{
		Response:     "y",
		Strategy:     VarianceReduction{},
		Iterations:   10,
		NoiseFloor:   1e-2,
		Restarts:     1,
		AllowRevisit: false, // keep training rows distinct: Kmm stays well conditioned
		ScoreWorkers: workers,
		Model:        model,
		ModelOptions: ModelOptions{
			Inducing:       1 << 10, // ≥ n: clamped to the full training set
			HyperSubsample: -1,      // hyper-fit on all rows: identical RNG stream to dense
			Jitter:         1e-13,
		},
	}
}

// equivRun executes one fresh loop at the given tier and scorer width,
// stepping its Session to collect the per-update model fingerprints.
func equivRun(t *testing.T, ds *dataset.Dataset, part dataset.Partition, model string, workers int) (Result, []uint64) {
	t.Helper()
	cfg := equivLoop(model, workers)
	cfg.Seed = 7
	s, err := NewSession(datasetProblem(ds, part, cfg.Response), cfg, nil)
	if err != nil {
		t.Fatalf("%s session: %v", model, err)
	}
	var fps []uint64
	for {
		q, ok, err := s.Next()
		if err != nil {
			t.Fatalf("%s run: %v", model, err)
		}
		if m, v := s.Model(); v > len(fps) {
			fps = append(fps, m.Fingerprint())
		}
		if !ok {
			return s.Result(), fps
		}
		s.Observe(ds.RespAt(cfg.Response, q.Row), ds.CostAt(q.Row))
	}
}

// TestSparseDenseLoopEquivalence extends TestSparseWithAllInducingMatchesExact
// from single predictions to a whole AL campaign: with the inducing set
// equal to the training set, a sparse-tier al.Run must reproduce the dense
// run — the same selection trace, and every monitored quantity within
// 1e-8 — while the sparse run itself is bit-reproducible between the
// serial and the parallel scorer (identical golden fingerprint trace).
func TestSparseDenseLoopEquivalence(t *testing.T) {
	ds := synthDS(t, 22, 0.05, 41)
	part := synthPartition(t, ds, 42)

	dense, _ := equivRun(t, ds, part, ModelDense, 1)
	sparse, sparseFPs := equivRun(t, ds, part, ModelSparse, 1)
	sparsePar, sparseParFPs := equivRun(t, ds, part, ModelSparse, 4)

	// Dense vs sparse at m = n: identical selection trace, monitored
	// quantities within 1e-8.
	if len(dense.Records) != len(sparse.Records) {
		t.Fatalf("dense %d records, sparse %d", len(dense.Records), len(sparse.Records))
	}
	for i, dr := range dense.Records {
		sr := sparse.Records[i]
		if dr.Row != sr.Row {
			t.Fatalf("iter %d: dense selected row %d, sparse row %d", dr.Iter, dr.Row, sr.Row)
		}
		if d := math.Abs(dr.AMSD - sr.AMSD); d > 1e-8 {
			t.Fatalf("iter %d: |ΔAMSD| = %g", dr.Iter, d)
		}
		if d := math.Abs(dr.RMSE - sr.RMSE); d > 1e-8 {
			t.Fatalf("iter %d: |ΔRMSE| = %g", dr.Iter, d)
		}
		if d := math.Abs(dr.SDChosen - sr.SDChosen); d > 1e-8 {
			t.Fatalf("iter %d: |ΔSDChosen| = %g", dr.Iter, d)
		}
		// The DTC likelihood equals the dense one through
		// log det A − log det Kmm, a difference of two ill-conditioned
		// terms at m = n — it tracks the dense value at ~1e-3 relative
		// precision while predictions hold 1e-8.
		if d := math.Abs(dr.LML - sr.LML); d > 1e-3*(1+math.Abs(dr.LML)) {
			t.Fatalf("iter %d: |ΔLML| = %g (dense %g)", dr.Iter, d, dr.LML)
		}
	}

	// Final posterior within 1e-8 across the full test grid.
	testX := ds.Matrix(part.Test)
	dp := dense.Final.PredictBatch(testX)
	sp := sparse.Final.PredictBatch(testX)
	for i := range dp {
		if d := math.Abs(dp[i].Mean - sp[i].Mean); d > 1e-8 {
			t.Fatalf("test point %d: |Δmean| = %g", i, d)
		}
		if d := math.Abs(dp[i].SD - sp[i].SD); d > 1e-8 {
			t.Fatalf("test point %d: |ΔSD| = %g", i, d)
		}
	}

	// Serial vs parallel scorer on the sparse tier: bitwise-identical
	// records and the same golden fingerprint trace — scoring order must
	// not leak into the model.
	if len(sparse.Records) != len(sparsePar.Records) {
		t.Fatalf("serial %d records, parallel %d", len(sparse.Records), len(sparsePar.Records))
	}
	for i := range sparse.Records {
		if sparse.Records[i] != sparsePar.Records[i] {
			t.Fatalf("iter %d: serial record %+v != parallel %+v",
				i+1, sparse.Records[i], sparsePar.Records[i])
		}
	}
	if len(sparseFPs) == 0 || len(sparseFPs) != len(sparseParFPs) {
		t.Fatalf("fingerprint traces: serial %d, parallel %d", len(sparseFPs), len(sparseParFPs))
	}
	for i := range sparseFPs {
		if sparseFPs[i] != sparseParFPs[i] {
			t.Fatalf("fingerprint %d: serial %016x != parallel %016x", i, sparseFPs[i], sparseParFPs[i])
		}
	}

	// The sparse tier really ran sparse models end to end.
	if _, ok := sparse.Final.(sparseRegressor); !ok {
		t.Fatalf("sparse run finished with %T", sparse.Final)
	}
	if _, ok := UnwrapGP(dense.Final); !ok {
		t.Fatalf("dense run finished with %T", dense.Final)
	}
	if s, ok := sparse.Final.(interface{ NumInducing() int }); !ok || s.NumInducing() != sparse.Final.NumTrain() {
		t.Fatalf("m = n violated: %d inducing for %d training points",
			sparse.Final.(interface{ NumInducing() int }).NumInducing(), sparse.Final.NumTrain())
	}
}

// TestAutoTierLoopRuns pins the auto tier end to end: below the crossover
// it must resolve dense, the loop must complete, checkpoint-recipe
// extraction must work (modelRecipe requires train-data access on every
// tier), and the fingerprint must carry the tier tag.
func TestAutoTierLoopRuns(t *testing.T) {
	ds := synthDS(t, 24, 0.05, 51)
	part := synthPartition(t, ds, 52)
	cfg := equivLoop(ModelAuto, 1)
	cfg.Seed = 9
	res, err := Run(ds, part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ar, ok := res.Final.(autoRegressor)
	if !ok {
		t.Fatalf("auto run finished with %T", res.Final)
	}
	if tier := ar.AutoModel.Tier(); tier != "dense" {
		t.Fatalf("auto tier at n=%d resolved %q, want dense below crossover", res.Final.NumTrain(), tier)
	}
	if _, _, _, err := modelRecipe(res.Final); err != nil {
		t.Fatalf("auto tier recipe: %v", err)
	}
	var inner Regressor = denseRegressor{ar.AutoModel.Dense()}
	if ar.Fingerprint() == inner.Fingerprint() {
		t.Fatal("auto fingerprint missing the tier tag")
	}
}

// TestSparseCheckpointResume runs the checkpoint/resume contract on the
// sparse tier: interrupting a Model: "sparse" loop and resuming must
// reproduce the uninterrupted run bit for bit (the atHypers rebuild plus
// the incremental-update chain), and a checkpoint written by one tier
// must refuse to resume under another.
func TestSparseCheckpointResume(t *testing.T) {
	ds := synthDS(t, 30, 0.05, 61)
	part := synthPartition(t, ds, 62)
	dir := t.TempDir()

	base := equivLoop(ModelSparse, 1)
	base.Iterations = 9
	base.ReoptimizeEvery = 3 // exercises sparse UpdateWithPoint in the rebuild
	base.Seed = 13

	ref := base
	ref.CheckpointPath = filepath.Join(dir, "ref.json")
	full, err := Run(ds, part, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) == 0 {
		t.Fatal("reference sparse run produced no records")
	}

	path := filepath.Join(dir, "cut.json")
	interrupted := base
	interrupted.CheckpointPath = path
	interrupted.Iterations = 5
	if _, err := Run(ds, part, interrupted, nil); err != nil {
		t.Fatal(err)
	}

	cont := base
	cont.CheckpointPath = path
	res, err := Resume(ds, part, cont, path)
	if err != nil {
		t.Fatalf("sparse resume: %v", err)
	}
	sameRecords(t, res.Records, full.Records)
	if res.Final.Fingerprint() != full.Final.Fingerprint() {
		t.Fatalf("resumed fingerprint %016x, uninterrupted %016x",
			res.Final.Fingerprint(), full.Final.Fingerprint())
	}

	// Tier mismatch: the same checkpoint under Model: "dense" must be
	// rejected, not silently rebuilt on the wrong tier.
	wrong := base
	wrong.Model = ModelDense
	wrong.CheckpointPath = path
	if _, err := Resume(ds, part, wrong, path); err == nil {
		t.Fatal("dense resume of a sparse checkpoint succeeded")
	} else if !strings.Contains(err.Error(), "model") {
		t.Fatalf("tier-mismatch error does not name the model: %v", err)
	}
}
