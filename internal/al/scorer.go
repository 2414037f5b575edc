package al

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Scorer metrics (see OBSERVABILITY.md): one al.score.parallel tick per
// scoring pass that fanned out over workers, next to the serial passes
// implied by al.candidates.evaluated.
var scoreParallel = obs.C("al.score.parallel")

// minParallelScore is the pool size below which scoring stays serial:
// goroutine startup dominates PredictBatch on tiny pools.
const minParallelScore = 32

// defaultScoreWorkers holds the process-wide worker count used when
// LoopConfig.ScoreWorkers is 0; ≤ 0 means runtime.GOMAXPROCS(0).
var defaultScoreWorkers atomic.Int64

// SetDefaultScoreWorkers sets the scorer worker count used by loops whose
// LoopConfig.ScoreWorkers is zero. n ≤ 0 restores the default,
// runtime.GOMAXPROCS(0); n == 1 makes scoring serial process-wide (the
// CLIs' -parallel=false). Safe for concurrent use.
func SetDefaultScoreWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultScoreWorkers.Store(int64(n))
}

// resolveScoreWorkers maps a LoopConfig.ScoreWorkers value to an
// effective worker count: 0 defers to SetDefaultScoreWorkers (falling
// back to GOMAXPROCS), anything else is used as given.
func resolveScoreWorkers(cfg int) int {
	if cfg > 0 {
		return cfg
	}
	if d := int(defaultScoreWorkers.Load()); d > 0 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// scorePool evaluates the model's predictive distribution at every row of
// poolX, fanning contiguous row chunks out over a worker pool with one
// batched PredictBatch call per chunk. Each prediction depends only on
// its own row, and results are written by index, so the output is
// identical to the serial path regardless of scheduling — parallel and
// serial loops produce the same selection traces.
//
// The model is only read (PredictBatch is safe for concurrent use on
// any fitted Regressor tier), so a single model may back many
// concurrent scorePool calls.
func scorePool(model Regressor, poolX *mat.Dense, workers int) []gp.Prediction {
	m := poolX.Rows()
	if workers < 2 || m < minParallelScore {
		return model.PredictBatch(poolX)
	}
	scoreParallel.Inc()
	out := make([]gp.Prediction, m)
	cols, raw := poolX.Cols(), poolX.Raw()
	parChunks(m, workers, func(lo, hi int) {
		sub := mat.NewFromData(hi-lo, cols, raw[lo*cols:hi*cols])
		copy(out[lo:hi], model.PredictBatch(sub))
	})
	return out
}

// ScoreBatch evaluates the model's predictive distribution at every row
// of xs through the chunked worker fan-out of scorePool (workers ≤ 0
// resolves like LoopConfig.ScoreWorkers). Candidate scoring in the loop
// and the serving layer's /predict both go through it, so they share
// one deterministic code path. Any model tier works.
func ScoreBatch(model Regressor, xs *mat.Dense, workers int) []gp.Prediction {
	return scorePool(model, xs, resolveScoreWorkers(workers))
}

// parChunks splits [0, n) into contiguous chunks across workers and runs
// fn on each concurrently; fn must only write state owned by its own
// index range. Serial when workers < 2 or n is small; reports whether
// it fanned out.
func parChunks(n, workers int, fn func(lo, hi int)) bool {
	if workers < 2 || n < minParallelScore {
		fn(0, n)
		return false
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return true
}
