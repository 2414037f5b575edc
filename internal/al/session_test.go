package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// failingUpdate is a model whose incremental update always fails.
type failingUpdate struct{ Regressor }

func (failingUpdate) UpdateWithPoint([]float64, float64) (Regressor, error) {
	return nil, errors.New("degenerate incremental update")
}

// TestSessionUpdateFailureFallsBackToRefit pins the one behaviour the
// offline and online loops used to disagree on: when the incremental
// update between refits fails, the session refits instead of failing
// the run — for an online problem as much as for an offline one.
func TestSessionUpdateFailureFallsBackToRefit(t *testing.T) {
	cfg := quickLoop(VarianceReduction{}, 4)
	cfg.ReoptimizeEvery = 3
	s, err := NewSession(Problem{X: onlineGoldenGrid(21), Seeds: []int{0, 20}}, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(_ int, x []float64, _ int) (float64, float64, error) {
		y, c := onlineGoldenTruth(x)
		return y, c, nil
	}
	// Measure the seeds and the first iteration's pick (a refit).
	for len(s.records) == 0 {
		q, ok, err := s.Next()
		if err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		y, c, _ := measure(q.Row, q.X, q.Attempt)
		s.Observe(y, c)
	}
	s.model = failingUpdate{s.model}
	before := refits.Value()
	if _, _, err := s.Next(); err != nil {
		t.Fatalf("a failed incremental update must fall back to a refit, got %v", err)
	}
	if got := refits.Value() - before; got != 1 {
		t.Fatalf("iteration 2 ran %d refits, want 1 (the fallback)", got)
	}
	if m, v := s.Model(); v != 2 {
		t.Fatalf("model version %d after the fallback (%T), want 2", v, m)
	} else if _, still := m.(failingUpdate); still {
		t.Fatal("the fallback kept the model whose update failed")
	}
	res, err := drive(s, measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records, want 4", len(res.Records))
	}
}

// TestCheckpointResumeKeepsConvergenceWindow: a checkpoint carries the
// AMSD of the iteration it closes, so a run resumed from it applies the
// convergence rule to the same window and stops at the same iteration
// as the uninterrupted run.
func TestCheckpointResumeKeepsConvergenceWindow(t *testing.T) {
	ds := synthDS(t, 50, 0.05, 10)
	part := synthPartition(t, ds, 11)
	dir := t.TempDir()
	base := quickLoop(VarianceReduction{}, 40)
	base.ConvergeWindow = 5
	base.ConvergeTol = 0.25
	base.Seed = 12

	full, err := Run(ds, part, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatal("reference run did not converge")
	}
	for cut := 1; cut < len(full.Records); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.json", cut))
		interrupted := base
		interrupted.CheckpointPath = path
		interrupted.Iterations = cut
		if _, err := Run(ds, part, interrupted, nil); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		res, err := Resume(ds, part, base, path)
		if err != nil {
			t.Fatalf("resume at %d: %v", cut, err)
		}
		if !res.Converged || len(res.Records) != len(full.Records) {
			t.Fatalf("resumed at %d: %d records (converged %v), uninterrupted run %d (converged %v)",
				cut, len(res.Records), res.Converged, len(full.Records), full.Converged)
		}
		sameRecords(t, res.Records, full.Records)
	}
}

// TestRunWithoutTestSet runs a partition too small to hold out any test
// rows (RandomPartition leaves Test nil): the records carry NaN RMSE and
// coverage instead of scoring against the whole dataset.
func TestRunWithoutTestSet(t *testing.T) {
	d := synthDS(t, 5, 0.05, 90)
	p, err := dataset.RandomPartition(d, dataset.PartitionConfig{NInitial: 1, TestFrac: 0.2}, rand.New(rand.NewSource(91)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Test != nil {
		t.Fatalf("partition holds out %v, want no test rows", p.Test)
	}
	res, err := Run(d, p, quickLoop(VarianceReduction{}, 3), rand.New(rand.NewSource(92)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("%d records, want 3", len(res.Records))
	}
	for _, r := range res.Records {
		if !math.IsNaN(r.RMSE) || !math.IsNaN(r.Coverage) {
			t.Fatalf("iteration %d: RMSE %g, coverage %g; want NaN for both", r.Iter, r.RMSE, r.Coverage)
		}
	}
	par, err := RunParallel(d, p, ParallelConfig{Loop: quickLoop(VarianceReduction{}, 0), BatchSize: 2, Rounds: 2}, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range par.Rounds {
		if !math.IsNaN(r.RMSE) {
			t.Fatalf("round %d: RMSE %g, want NaN", r.Round, r.RMSE)
		}
	}
}

// TestSessionPoolCacheExtendsBetweenRefits: between hyperparameter
// refits every scoring pass extends the cached candidate rows by one
// bordered row instead of rebuilding them; only a refit rebuilds.
func TestSessionPoolCacheExtendsBetweenRefits(t *testing.T) {
	ds := synthDS(t, 60, 0.05, 9)
	part := synthPartition(t, ds, 9)
	cfg := quickLoop(VarianceReduction{}, 25)
	cfg.AllowRevisit = false
	cfg.ReoptimizeEvery = 10
	s, err := NewSession(datasetProblem(ds, part, cfg.Response), cfg, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	extended, built := obs.C("gp.pool.rows.extended"), obs.C("gp.pool.rows.built")
	measure := measureFunc(ds, cfg)
	for {
		iter := s.iter
		e0, b0 := extended.Value(), built.Value()
		q, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ext, reb, pool := extended.Value()-e0, built.Value()-b0, int64(len(s.pool))
		if (iter-1)%cfg.ReoptimizeEvery == 0 {
			if reb != pool || ext != 0 {
				t.Fatalf("iteration %d (refit): built %d and extended %d rows, want %d and 0", iter, reb, ext, pool)
			}
		} else if reb != 0 || ext != pool {
			t.Fatalf("iteration %d (incremental): built %d and extended %d rows, want 0 and %d", iter, reb, ext, pool)
		}
		y, c, err := measure(q.Row, q.X, q.Attempt)
		if err != nil {
			t.Fatal(err)
		}
		s.Observe(y, c)
	}
	if len(s.records) != 25 {
		t.Fatalf("%d records, want 25", len(s.records))
	}
}

// TestSessionPoolCacheSerialParallelIdentical: with the cache carrying
// rows across incremental steps, serial and parallel scoring still give
// identical records, and so does a session whose every row is rebuilt
// (a refit each step).
func TestSessionPoolCacheSerialParallelIdentical(t *testing.T) {
	ds := synthDS(t, 60, 0.05, 9)
	part := synthPartition(t, ds, 9)
	for _, every := range []int{1, 4} {
		runWith := func(workers int) Result {
			cfg := quickLoop(VarianceReduction{}, 12)
			cfg.ReoptimizeEvery = every
			cfg.ScoreWorkers = workers
			res, err := Run(ds, part, cfg, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial, parallel := runWith(1), runWith(8)
		sameRecords(t, parallel.Records, serial.Records)
	}
}

// TestSessionRejectsDuplicatePoolRows: a pool row listed twice would be
// scored twice and race with itself in the parallel scorer.
func TestSessionRejectsDuplicatePoolRows(t *testing.T) {
	x := onlineGoldenGrid(5)
	cfg := quickLoop(VarianceReduction{}, 2)
	for _, pool := range [][]int{{0, 2, 2}, {1, 5}, {-1}} {
		if _, err := NewSession(Problem{X: x, Pool: pool, Train: []int{3}, TrainY: []float64{1}}, cfg, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("pool %v accepted", pool)
		}
	}
}

// TestResumeRejectsDuplicatePoolRows: a checkpoint's pool replaces the
// session's, so it passes the same check NewSession applies.
func TestResumeRejectsDuplicatePoolRows(t *testing.T) {
	ds := synthDS(t, 30, 0.05, 4)
	part := synthPartition(t, ds, 4)
	cfg := quickLoop(VarianceReduction{}, 3)
	cfg.AllowRevisit = false
	cfg.Seed = 5
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	if _, err := Run(ds, part, cfg, nil); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Pool) < 2 {
		t.Fatalf("checkpoint pool has %d rows", len(ck.Pool))
	}
	ck.Pool[1] = ck.Pool[0]
	if _, err := ResumeFrom(ds, part, cfg, ck); err == nil {
		t.Fatal("resume accepted a checkpoint pool that lists a row twice")
	}
}

// opaqueModel hides a dense model from UnwrapGP, as the sparse tier's
// models are hidden.
type opaqueModel struct{ Regressor }

func (m opaqueModel) UpdateWithPoint(x []float64, y float64) (Regressor, error) {
	r, err := m.Regressor.UpdateWithPoint(x, y)
	return opaqueModel{r}, err
}

// TestSessionDropsPoolCache: the candidate cache lives only while dense
// models are scored — a model that is not dense, or the end of the
// session, releases it.
func TestSessionDropsPoolCache(t *testing.T) {
	cfg := quickLoop(VarianceReduction{}, 6)
	cfg.ReoptimizeEvery = 10
	s, err := NewSession(Problem{X: onlineGoldenGrid(21), Seeds: []int{0, 20}}, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(_ int, x []float64, _ int) (float64, float64, error) {
		y, c := onlineGoldenTruth(x)
		return y, c, nil
	}
	step := func() {
		t.Helper()
		q, ok, err := s.Next()
		if err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		y, c, _ := measure(q.Row, q.X, q.Attempt)
		s.Observe(y, c)
	}
	for len(s.records) < 2 {
		step()
	}
	if s.post == nil {
		t.Fatal("no candidate cache after dense scoring passes")
	}
	s.model = opaqueModel{s.model}
	step()
	if s.post != nil {
		t.Fatal("scoring a model that is not dense kept the candidate cache")
	}

	s, err = NewSession(Problem{X: onlineGoldenGrid(21), Seeds: []int{0, 20}}, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for len(s.records) < 2 {
		step()
	}
	if s.post == nil {
		t.Fatal("no candidate cache after dense scoring passes")
	}
	if _, err := drive(s, measure); err != nil {
		t.Fatal(err)
	}
	if s.post != nil {
		t.Fatal("a finished session kept its candidate cache")
	}
}
