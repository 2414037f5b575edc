package gp

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// poolGrid draws m candidate points in [0,3]².
func poolGrid(rng *rand.Rand, m int) *mat.Dense {
	x := mat.New(m, 2)
	for i := 0; i < m; i++ {
		x.Set(i, 0, 3*rng.Float64())
		x.Set(i, 1, 3*rng.Float64())
	}
	return x
}

// allRows lists 0..m-1.
func allRows(m int) []int {
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// pickGridRows gathers the listed rows of x.
func pickGridRows(x *mat.Dense, rows []int) *mat.Dense {
	out := mat.New(len(rows), x.Cols())
	for i, r := range rows {
		copy(out.RawRow(i), x.RawRow(r))
	}
	return out
}

// counterDelta runs fn and returns how many rows it extended and built.
func counterDelta(fn func()) (extended, built int64) {
	e0, b0 := poolRowsExtended.Value(), poolRowsBuilt.Value()
	fn()
	return poolRowsExtended.Value() - e0, poolRowsBuilt.Value() - b0
}

// assertPoolMatches checks the cache against PredictBatch on the same
// rows with ==: the two paths must be bit-identical, not merely close.
func assertPoolMatches(t *testing.T, label string, p *PoolPosterior, g *GP, grid *mat.Dense, rows []int) (extended, built int64) {
	t.Helper()
	got := make([]Prediction, len(rows))
	extended, built = counterDelta(func() { p.Predict(got, g, rows) })
	want := g.PredictBatch(pickGridRows(grid, rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: PoolPosterior %+v, PredictBatch %+v", label, rows[i], got[i], want[i])
		}
	}
	return extended, built
}

// seedGP fits a model over n synthetic points at fixed hyperparameters,
// returning it with the unused remainder of a 60-point stream.
func seedGP(t testing.TB, n int, normalize bool) (*GP, [][]float64, []float64) {
	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i], ys[i] = synthPoint(rng)
	}
	cfg := Config{Kernel: kernel.NewRBF(0.8, 1.2), NoiseInit: 0.1, FixedNoise: true, Normalize: normalize}
	g, err := Fit(cfg, mat.NewFromRows(xs[:n]), ys[:n], nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, xs[n:], ys[n:]
}

// TestPoolPosteriorMatchesPredictBatch is the cache's property test:
// across every way a model can follow the one a row was cached for,
// the cached posterior equals PredictBatch bit for bit, and only the
// bordered-child case extends rows instead of rebuilding them.
func TestPoolPosteriorMatchesPredictBatch(t *testing.T) {
	const m = 48
	grid := poolGrid(rand.New(rand.NewSource(9)), m)
	rows := allRows(m)

	t.Run("update chain", func(t *testing.T) {
		for _, normalize := range []bool{false, true} {
			g, xs, ys := seedGP(t, 6, normalize)
			p := NewPoolPosterior(grid)
			if _, built := assertPoolMatches(t, "first fit", p, g, grid, rows); built != m {
				t.Fatalf("first fit built %d rows, want %d", built, m)
			}
			for step := 0; step < 30; step++ {
				var err error
				if g, err = g.UpdateWithPoint(xs[step], ys[step]); err != nil {
					t.Fatal(err)
				}
				ext, built := assertPoolMatches(t, "chain", p, g, grid, rows)
				if ext != m || built != 0 {
					t.Fatalf("step %d: extended %d and built %d rows, want %d and 0", step, ext, built, m)
				}
			}
			// Scoring the same model again reuses every row as it is.
			if ext, built := assertPoolMatches(t, "repeat", p, g, grid, rows); ext != 0 || built != 0 {
				t.Fatalf("repeat: extended %d and built %d rows, want none", ext, built)
			}
		}
	})

	t.Run("degenerate pivot fallback", func(t *testing.T) {
		xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
		cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 1e-9, NoiseFloor: 1e-10, FixedNoise: true}
		g, err := Fit(cfg, mat.NewFromRows(xs), []float64{0, 1, 2, 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPoolPosterior(grid)
		assertPoolMatches(t, "before", p, g, grid, rows)
		dup, err := g.UpdateWithPoint([]float64{1, 1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if dup.parent != 0 {
			t.Fatal("a duplicate point at ~zero noise took the bordered path; the fallback was not exercised")
		}
		if ext, built := assertPoolMatches(t, "fallback", p, dup, grid, rows); ext != 0 || built != m {
			t.Fatalf("fallback: extended %d and built %d rows, want 0 and %d", ext, built, m)
		}
	})

	t.Run("refit at new hyperparameters", func(t *testing.T) {
		g, xs, ys := seedGP(t, 10, true)
		p := NewPoolPosterior(grid)
		assertPoolMatches(t, "before", p, g, grid, rows)
		g, err := g.UpdateWithPoint(xs[0], ys[0])
		if err != nil {
			t.Fatal(err)
		}
		assertPoolMatches(t, "child", p, g, grid, rows)
		refit, err := FitAtHypers(Config{Kernel: kernel.NewRBF(1, 1), Normalize: true},
			g.TrainX(), g.TrainY(), []float64{-0.5, 0.3}, g.LogNoise())
		if err != nil {
			t.Fatal(err)
		}
		if ext, built := assertPoolMatches(t, "refit", p, refit, grid, rows); ext != 0 || built != m {
			t.Fatalf("refit: extended %d and built %d rows, want 0 and %d", ext, built, m)
		}
		// The refit's own children extend again.
		child, err := refit.UpdateWithPoint(xs[1], ys[1])
		if err != nil {
			t.Fatal(err)
		}
		if ext, built := assertPoolMatches(t, "refit child", p, child, grid, rows); ext != m || built != 0 {
			t.Fatalf("refit child: extended %d and built %d rows, want %d and 0", ext, built, m)
		}
	})

	t.Run("two children of one parent", func(t *testing.T) {
		g, xs, ys := seedGP(t, 8, false)
		p := NewPoolPosterior(grid)
		assertPoolMatches(t, "parent", p, g, grid, rows)
		a, err := g.UpdateWithPoint(xs[0], ys[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.UpdateWithPoint(xs[1], ys[1])
		if err != nil {
			t.Fatal(err)
		}
		// Half the rows go to the first child; the second child extends
		// the rows still at the parent and rebuilds the others.
		half := rows[:m/2]
		if ext, built := assertPoolMatches(t, "first child", p, a, grid, half); ext != m/2 || built != 0 {
			t.Fatalf("first child: extended %d and built %d rows, want %d and 0", ext, built, m/2)
		}
		if ext, built := assertPoolMatches(t, "second child", p, b, grid, rows); ext != m-m/2 || built != m/2 {
			t.Fatalf("second child: extended %d and built %d rows, want %d and %d", ext, built, m-m/2, m/2)
		}
		assertPoolMatches(t, "first child again", p, a, grid, rows)
	})

	t.Run("shrinking subset", func(t *testing.T) {
		g, xs, ys := seedGP(t, 6, true)
		p := NewPoolPosterior(grid)
		open := append([]int(nil), rows...)
		assertPoolMatches(t, "start", p, g, grid, open)
		rng := rand.New(rand.NewSource(4))
		var dropped []int
		for step := 0; step < 20; step++ {
			k := rng.Intn(len(open))
			dropped = append(dropped, open[k])
			open = append(open[:k], open[k+1:]...)
			var err error
			if g, err = g.UpdateWithPoint(xs[step], ys[step]); err != nil {
				t.Fatal(err)
			}
			if ext, built := assertPoolMatches(t, "subset", p, g, grid, open); ext != int64(len(open)) || built != 0 {
				t.Fatalf("step %d: extended %d and built %d rows, want %d and 0", step, ext, built, len(open))
			}
		}
		// Rows that left the subset missed at least the model they were
		// dropped at, so they are more than one bordered row behind and
		// come back rebuilt.
		back := append(append([]int(nil), dropped...), open...)
		g, err := g.UpdateWithPoint(xs[20], ys[20])
		if err != nil {
			t.Fatal(err)
		}
		if ext, built := assertPoolMatches(t, "rows come back", p, g, grid, back); ext != int64(len(open)) || built != int64(len(dropped)) {
			t.Fatalf("rows come back: extended %d and built %d rows, want %d and %d", ext, built, len(open), len(dropped))
		}
	})
}

// TestPoolPosteriorParallelRebuild: Predict over disjoint chunks on
// concurrent goroutines leaves the same predictions and the same cache
// as one serial call, for a rebuild and for the extension after it.
func TestPoolPosteriorParallelRebuild(t *testing.T) {
	const m = 97
	grid := poolGrid(rand.New(rand.NewSource(21)), m)
	rows := allRows(m)
	g, xs, ys := seedGP(t, 12, true)
	child, err := g.UpdateWithPoint(xs[0], ys[0])
	if err != nil {
		t.Fatal(err)
	}
	serial, par := NewPoolPosterior(grid), NewPoolPosterior(grid)
	for _, model := range []*GP{g, child} {
		want := make([]Prediction, m)
		serial.Predict(want, model, rows)
		got := make([]Prediction, m)
		var wg sync.WaitGroup
		for lo := 0; lo < m; lo += 13 {
			hi := min(lo+13, m)
			wg.Add(1)
			go func() {
				defer wg.Done()
				par.Predict(got[lo:hi], model, rows[lo:hi])
			}()
		}
		wg.Wait()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d: parallel %+v, serial %+v", i, got[i], want[i])
			}
			s, q := serial.rows[i], par.rows[i]
			if s.model != q.model || s.kss != q.kss || s.vv != q.vv || len(s.v) != len(q.v) {
				t.Fatalf("row %d: parallel cache state differs from serial", i)
			}
		}
	}
}

// BenchmarkPoolPosterior scores m = 1024 candidates against n = 256
// training points: a full rebuild (what every refit costs) against the
// one-row extension after an incremental update.
func BenchmarkPoolPosterior(b *testing.B) {
	const m, n = 1024, 256
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = synthPoint(rng)
	}
	cfg := Config{Kernel: kernel.NewRBF(0.8, 1.2), NoiseInit: 0.1, FixedNoise: true}
	parent, err := Fit(cfg, mat.NewFromRows(xs[:n-1]), ys[:n-1], nil)
	if err != nil {
		b.Fatal(err)
	}
	child, err := parent.UpdateWithPoint(xs[n-1], ys[n-1])
	if err != nil {
		b.Fatal(err)
	}
	grid := poolGrid(rng, m)
	rows := allRows(m)
	dst := make([]Prediction, m)

	b.Run("rebuild", func(b *testing.B) {
		// Two models at the same hyperparameters but distinct factors:
		// alternating between them rebuilds every row each time.
		twin, err := FitAtHypers(cfg, child.TrainX(), child.TrainY(), child.Kernel().Hyper(), child.LogNoise())
		if err != nil {
			b.Fatal(err)
		}
		models := []*GP{child, twin}
		p := NewPoolPosterior(grid)
		p.Predict(dst, twin, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Predict(dst, models[i%2], rows)
		}
	})
	b.Run("extend", func(b *testing.B) {
		p := NewPoolPosterior(grid)
		p.Predict(dst, parent, rows)
		saved := make([]float64, m)
		for i := range p.rows {
			saved[i] = p.rows[i].vv
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Put every row back at the parent (O(m), no recomputation),
			// then extend it to the child.
			for r := range p.rows {
				c := &p.rows[r]
				c.ks, c.v, c.vv, c.model = c.ks[:n-1], c.v[:n-1], saved[r], parent.id
			}
			p.Predict(dst, child, rows)
		}
	})
}
