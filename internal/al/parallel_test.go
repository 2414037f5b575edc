package al

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func TestRunParallelValidation(t *testing.T) {
	d := synthDS(t, 30, 0.05, 80)
	p := synthPartition(t, d, 81)
	cfg := ParallelConfig{Loop: quickLoop(VarianceReduction{}, 6), BatchSize: 0}
	if _, err := RunParallel(d, p, cfg, nil); err == nil {
		t.Fatal("expected batch-size error")
	}
	cfg = ParallelConfig{Loop: LoopConfig{}, BatchSize: 2}
	if _, err := RunParallel(d, p, cfg, nil); err == nil {
		t.Fatal("expected loop validation error")
	}
	bad := dataset.Partition{Initial: []int{0}}
	cfg = ParallelConfig{Loop: quickLoop(VarianceReduction{}, 6), BatchSize: 2}
	if _, err := RunParallel(d, bad, cfg, nil); err == nil {
		t.Fatal("expected empty-active error")
	}
}

func TestRunParallelReducesRMSE(t *testing.T) {
	d := synthDS(t, 60, 0.05, 82)
	p := synthPartition(t, d, 83)
	cfg := ParallelConfig{
		Loop:      quickLoop(VarianceReduction{}, 0),
		BatchSize: 3,
		Rounds:    6,
	}
	res, err := RunParallel(d, p, cfg, rand.New(rand.NewSource(84)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 6 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	first, last := res.Rounds[0], res.Rounds[len(res.Rounds)-1]
	if !(last.RMSE < first.RMSE) {
		t.Fatalf("RMSE did not improve: %g -> %g", first.RMSE, last.RMSE)
	}
	for i, r := range res.Rounds {
		if len(r.Rows) != 3 {
			t.Fatalf("round %d picked %d experiments", i, len(r.Rows))
		}
		if r.Train != 1+3*(i+1) {
			t.Fatalf("round %d train size %d", i, r.Train)
		}
		// Wall clock must be below resource cost (parallelism pays).
		if r.WallClock > r.CumCost+1e-9 {
			t.Fatalf("round %d wall clock %g exceeds total cost %g", i, r.WallClock, r.CumCost)
		}
	}
	if res.Strategy != "variance-reduction/batch" {
		t.Fatalf("strategy %q", res.Strategy)
	}
}

// A round's picks must be distinct — the believer must not select the
// same experiment twice within one batch.
func TestRunParallelDistinctWithinRound(t *testing.T) {
	d := synthDS(t, 40, 0.1, 85)
	p := synthPartition(t, d, 86)
	cfg := ParallelConfig{Loop: quickLoop(VarianceReduction{}, 0), BatchSize: 4, Rounds: 4}
	res, err := RunParallel(d, p, cfg, rand.New(rand.NewSource(87)))
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range res.Rounds {
		seen := map[int]bool{}
		for _, row := range round.Rows {
			if seen[row] {
				t.Fatalf("round %d picked row %d twice", round.Round, row)
			}
			seen[row] = true
		}
	}
}

// Parallel batches with wall-clock accounting must reach a given RMSE in
// less wall-clock than the same number of sequential experiments.
func TestRunParallelWallClockAdvantage(t *testing.T) {
	d := synthDS(t, 60, 0.05, 88)
	p := synthPartition(t, d, 89)
	seq, err := Run(d, p, quickLoop(VarianceReduction{}, 12), rand.New(rand.NewSource(90)))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(d, p, ParallelConfig{
		Loop: quickLoop(VarianceReduction{}, 0), BatchSize: 4, Rounds: 3,
	}, rand.New(rand.NewSource(90)))
	if err != nil {
		t.Fatal(err)
	}
	// Both ran 12 experiments; parallel wall clock counts only the max
	// per round.
	seqWall := seq.Records[len(seq.Records)-1].CumCost
	parWall := par.Rounds[len(par.Rounds)-1].WallClock
	if parWall >= seqWall {
		t.Fatalf("parallel wall clock %g not below sequential %g", parWall, seqWall)
	}
	if math.IsNaN(par.Rounds[len(par.Rounds)-1].RMSE) {
		t.Fatal("missing RMSE")
	}
}

// ReoptimizeEvery with the incremental-update fast path must not change the
// sequence of selections versus per-iteration refits with identical
// hyperparameters frozen (sanity: conditioning is exact).
func TestConditionFastPathConsistency(t *testing.T) {
	d := synthDS(t, 40, 0.05, 91)
	p := synthPartition(t, d, 92)
	// Long reopt interval: iterations 2..6 all run through UpdateWithPoint.
	cfg := quickLoop(VarianceReduction{}, 6)
	cfg.ReoptimizeEvery = 10
	res, err := Run(d, p, cfg, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("%d records", len(res.Records))
	}
	// Noise is frozen between refits.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Noise != res.Records[0].Noise {
			t.Fatalf("noise drifted at iter %d without a refit", i+1)
		}
	}
	// Training size still grows 1 per iteration.
	for i, r := range res.Records {
		if r.Train != len(p.Initial)+i+1 {
			t.Fatalf("train size %d at iter %d", r.Train, i+1)
		}
	}
}
