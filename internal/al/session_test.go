package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
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
