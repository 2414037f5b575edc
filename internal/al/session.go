package al

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Problem is what one Session learns over. Its fields carry every
// difference between the offline loop (Run, over a partitioned
// dataset) and the online one (RunOnline, against a live oracle); the
// iteration itself is the same for both. All row numbers index X.
type Problem struct {
	X *mat.Dense // the candidates, one per row

	// Pool lists the rows open to selection. A skipped candidate leaves
	// it, and so does a measured one unless LoopConfig.AllowRevisit is
	// set. A nil Pool offers every row of X and never shrinks (online).
	Pool []int

	Cost []float64 // per-row cost strategies see as Candidate.Cost; nil shows 0

	// TestX and TestY are the held-out set behind each record's RMSE and
	// Coverage, one target per row of TestX; both are NaN when TestX has
	// no rows. A nil TestX means there is no held-out truth at all: NaN
	// RMSE and zero Coverage (online).
	TestX *mat.Dense
	TestY []float64

	// Train and TrainY are rows observed before the session starts: they
	// enter the first fit at no cost and lead Result.TrainRows (offline).
	Train  []int
	TrainY []float64

	// Seeds are rows measured through Next/Observe before learning
	// starts; a seed that exhausts its retries is dropped. Measured
	// seeds are left out of Result.TrainRows (online).
	Seeds []int
}

// Query is one measurement a Session asks for.
type Query struct {
	Row     int       // row of Problem.X
	X       []float64 // its coordinates (a fresh copy)
	Attempt int       // 0-based attempt count for the row, across retries and revisits
}

// Session is one Active Learning realization driven one measurement at
// a time. Next runs the model update, scores the candidates and
// selects one (§IV), then returns the query to measure; Observe or
// Fail reports the outcome, which either retries the query, skips it,
// or records the iteration and tests the budget and convergence rules.
// A Session is not safe for concurrent use, but it may move between
// goroutines between calls.
type Session struct {
	c       LoopConfig
	p       Problem // read for X, Cost, TestX, TestY and Seeds
	rng     *rand.Rand
	cs      *countingSource // the loop-owned RNG's draw count; nil otherwise
	fitter  modelFitter
	maxIter int

	// Loop state between iterations: what a Checkpoint serializes. The
	// pending point is the previous iteration's accepted measurement,
	// not yet conditioned into the model; refit* is the recipe of the
	// last refit that Resume rebuilds the model from.
	train, pool         []int
	trainY, amsdHist    []float64
	records             []IterationRecord
	cumCost             float64
	pendingX            []float64
	pendingY            float64
	hasPending          bool
	attempts            map[int]int // row → measurement attempts so far
	refitHyper          []float64
	refitLogSN          float64
	refitN              int
	iter                int // 1-based iteration in progress, or the next one
	model               Regressor
	updates             int // successful model updates so far
	converged, finished bool
	seedRows            int // measured seeds at the head of train
	nextSeed            int
	cur                 *measurement
	err                 error // sticky: returned by every later Next
	lastFail            error // the most recent measurement error

	// post caches each candidate's posterior terms across dense models,
	// so scoring after an incremental update costs O(n) per candidate;
	// built on the first dense scoring pass, dropped when a model is
	// not dense or the session ends.
	post *gp.PoolPosterior
}

// measurement is the experiment in flight: a seed, or the candidate an
// iteration selected, across its retries.
type measurement struct {
	row    int
	x      []float64
	tries  int  // attempts that failed or were rejected
	issued bool // handed out by Next and not yet answered
	span   *obs.Span

	// Set for an iteration's candidate only.
	iterSpan *obs.Span
	sel      int // index into the pool
	pred     gp.Prediction
	amsd     float64
}

// NewSession starts a realization of p under cfg. With a nil rng the
// session owns a counting RNG seeded from cfg.Seed, whose position
// checkpoints record (required when cfg.CheckpointPath is set); its
// stream is identical to rand.New(rand.NewSource(cfg.Seed)).
func NewSession(p Problem, cfg LoopConfig, rng *rand.Rand) (*Session, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if p.X == nil || p.X.Rows() == 0 {
		return nil, errors.New("al: session needs a nonempty candidate matrix")
	}
	if p.TestX != nil && p.TestX.Rows() != len(p.TestY) {
		return nil, fmt.Errorf("al: %d test rows but %d test targets", p.TestX.Rows(), len(p.TestY))
	}
	for _, r := range p.Seeds {
		if r < 0 || r >= p.X.Rows() {
			return nil, fmt.Errorf("al: seed index %d out of range %d", r, p.X.Rows())
		}
	}
	if err := checkPool(p.Pool, p.X.Rows()); err != nil {
		return nil, err
	}
	var cs *countingSource
	if rng == nil {
		rng, cs = newCountingRand(c.Seed, 0)
	} else if c.CheckpointPath != "" {
		return nil, errors.New("al: checkpointing requires a loop-owned RNG: pass a nil rng and set LoopConfig.Seed")
	}
	s := &Session{
		c: c, p: p, rng: rng, cs: cs, fitter: newModelFitter(c),
		train:    append([]int(nil), p.Train...),
		trainY:   append([]float64(nil), p.TrainY...),
		attempts: map[int]int{},
		iter:     1,
	}
	if p.Pool != nil {
		s.pool = append(make([]int, 0, len(p.Pool)), p.Pool...)
	}
	if s.maxIter = c.Iterations; s.maxIter <= 0 {
		s.maxIter = p.X.Rows()
		if p.Pool != nil {
			s.maxIter = len(p.Pool)
		}
	}
	return s, nil
}

// checkPool rejects a pool row out of range of n candidates or listed
// twice: scoring writes per-row cache state from several workers, so a
// row listed twice would race with itself.
func checkPool(pool []int, n int) error {
	listed := make([]bool, n)
	for _, r := range pool {
		if r < 0 || r >= n || listed[r] {
			return fmt.Errorf("al: pool row %d out of range %d or listed twice", r, n)
		}
		listed[r] = true
	}
	return nil
}

// Next returns the query to measure, or false when the realization is
// over. It is idempotent: until Observe or Fail answers a query, Next
// returns it again. An error ends the session.
func (s *Session) Next() (Query, bool, error) {
	if s.err == nil && s.cur == nil && !s.finished {
		s.begin()
	}
	if s.err != nil || s.cur == nil {
		s.post = nil // nothing is scored again
		return Query{}, false, s.err
	}
	m := s.cur
	if !m.issued {
		m.issued = true
		s.attempts[m.row]++
	}
	return Query{Row: m.row, X: append([]float64(nil), m.x...), Attempt: s.attempts[m.row] - 1}, true, nil
}

// begin starts the next measurement: the next seed, or else the next
// iteration's model update, scoring and selection. It leaves s.cur nil
// when the realization is over.
func (s *Session) begin() {
	if s.nextSeed < len(s.p.Seeds) {
		row := s.p.Seeds[s.nextSeed]
		s.nextSeed++
		_, span := obs.Start(context.Background(), "al.experiment")
		s.cur = &measurement{row: row, x: s.p.X.RawRow(row), span: span}
		return
	}
	if len(s.trainY) == 0 {
		s.err = errors.New("al: every seed experiment failed")
		if s.lastFail != nil {
			s.err = fmt.Errorf("%w: %w", s.err, s.lastFail)
		}
		return
	}
	if s.iter > s.maxIter || (s.pool != nil && len(s.pool) == 0) {
		s.finished = true
		return
	}
	iterCtx, iterSpan := obs.Start(context.Background(), "al.iteration")
	iterSpan.SetAttr("iter", s.iter)
	if err := s.update(iterCtx); err != nil {
		s.err = fmt.Errorf("al: iteration %d: %w", s.iter, err)
		return
	}

	_, scoreSpan := obs.Start(iterCtx, "al.score")
	cands, amsd := s.score()
	scoreSpan.End()
	candidatesEvaluated.Add(int64(len(cands)))
	poolSize.Set(float64(len(cands)))

	_, selectSpan := obs.Start(iterCtx, "al.select")
	sel := selectCandidate(s.c.Strategy, s.model, cands, s.rng)
	selectSpan.End()
	if sel < 0 || sel >= len(cands) {
		s.err = fmt.Errorf("al: strategy %s returned invalid index %d", s.c.Strategy.Name(), sel)
		return
	}
	_, span := obs.Start(iterCtx, "al.experiment")
	s.cur = &measurement{
		row: cands[sel].Row, x: cands[sel].X, span: span,
		iterSpan: iterSpan, sel: sel, pred: cands[sel].Pred, amsd: amsd,
	}
}

// update brings the model up to date with the training set: a full
// refit every ReoptimizeEvery-th iteration, otherwise an incremental
// update with the pending measurement. A failed incremental update
// falls back to a refit.
func (s *Session) update(iterCtx context.Context) error {
	ctx, span := obs.Start(iterCtx, "al.model.update")
	defer span.End()
	reopt := s.model == nil || (s.iter-1)%s.c.ReoptimizeEvery == 0
	if !reopt && !s.hasPending {
		// The previous iteration was skipped: the model already covers
		// the training set.
		return nil
	}
	var err error
	if !reopt {
		conditionUpdates.Inc()
		var m Regressor
		if m, err = s.model.UpdateWithPoint(s.pendingX, s.pendingY); err == nil {
			s.model = m
		}
	}
	if reopt || err != nil {
		err = s.refit(ctx)
	}
	s.hasPending = false
	s.pendingX = nil
	if err == nil {
		s.updates++
	}
	return err
}

// refit fits the full training set through the configured tier's
// degradation chain, warm-starting from the current model, and records
// the refit recipe for checkpointing. A degraded dense fit that
// rejected trailing points pops them from the training set (returning
// them to a shrinking pool unless revisits are allowed).
func (s *Session) refit(ctx context.Context) error {
	refits.Inc()
	gcfg := fitConfig(s.c, s.p.X.Cols(), len(s.train), s.model)
	m, deg, err := s.fitter.refit(ctx, gcfg, pickRows(s.p.X, s.train), s.trainY, s.model, s.rng)
	if err != nil {
		return err
	}
	if deg.Rejected > 0 {
		// The degraded fit dropped the newest observations: drop the
		// same rows from the training set so model and state stay
		// aligned.
		n := len(s.train)
		for k := n - deg.Rejected; k < n; k++ {
			alRejected.Inc()
			if s.pool != nil && !s.c.AllowRevisit {
				s.pool = append(s.pool, s.train[k])
			}
		}
		obs.Emit("al.train.rejected", map[string]any{
			"iter": s.iter, "rows": append([]int(nil), s.train[n-deg.Rejected:]...),
			"level": deg.Level.String(),
		})
		s.train = s.train[:n-deg.Rejected]
		s.trainY = s.trainY[:n-deg.Rejected]
		s.seedRows = min(s.seedRows, len(s.train))
	}
	s.model = m
	var hyper []float64
	hyper, s.refitLogSN, s.refitN, err = modelRecipe(m)
	s.refitHyper = append(s.refitHyper[:0], hyper...)
	return err
}

// fitConfig is the GP configuration of a full refit over n training
// points: the (possibly dynamic, §V-B4) noise floor, warm-started from
// prev's hyperparameters when there is a previous model.
func fitConfig(c LoopConfig, dims, n int, prev Regressor) gp.Config {
	floor := c.NoiseFloor
	if c.DynamicFloorC > 0 {
		floor = gp.DynamicNoiseFloor(c.DynamicFloorC, n)
	}
	gcfg := gp.Config{
		Kernel:     c.NewKernel(dims),
		NoiseInit:  math.Max(0.1, floor),
		NoiseFloor: floor,
		Optimize:   true,
		Restarts:   c.Restarts,
		Normalize:  c.Normalize,
	}
	if td, ok := prev.(TrainDataModel); ok {
		gcfg.Kernel.SetHyper(td.Kernel().Hyper())
		gcfg.NoiseInit = math.Max(regNoise(prev), floor)
	}
	return gcfg
}

// Observe reports the measured response and cost of the query Next
// returned. A non-finite response, or one the LoopConfig.GuardSigma
// guard refuses, counts as a failed attempt (see Fail).
func (s *Session) Observe(y, cost float64) {
	m := s.answer()
	if m == nil {
		return
	}
	guard := 0.0
	if m.iterSpan != nil {
		guard = s.c.GuardSigma
	}
	if guardRejects(guard, m.pred, regObsNoise(s.model), y) {
		alRejected.Inc()
		obs.Emit("al.observation.rejected", map[string]any{
			"iter": s.iter, "row": m.row, "attempt": s.attempts[m.row] - 1, "y": y,
			"mean": m.pred.Mean, "sd": m.pred.SD,
		})
		s.retry(m)
		return
	}
	experiments.Inc()
	m.span.End()
	s.cur = nil
	s.train = append(s.train, m.row)
	s.trainY = append(s.trainY, y)
	s.cumCost += cost
	if m.iterSpan == nil {
		s.seedRows++
		return
	}
	s.record(m)
}

// Fail reports that the query Next returned could not be measured. The
// query is retried up to LoopConfig.RetryBudget more times; after that
// it is skipped: a seed is dropped, and an iteration's candidate leaves
// a shrinking pool and the iteration ends without a record.
func (s *Session) Fail(err error) {
	m := s.answer()
	if m == nil {
		return
	}
	s.lastFail = fmt.Errorf("al: experiment at row %d: %w", m.row, err)
	obs.Emit("al.experiment.failed", map[string]any{
		"iter": s.iter, "row": m.row, "attempt": s.attempts[m.row] - 1, "err": err.Error(),
	})
	s.retry(m)
}

// answer returns the measurement an Observe or Fail reports on, or nil
// (ending the session) when Next issued none.
func (s *Session) answer() *measurement {
	if s.cur == nil || !s.cur.issued {
		s.err = errors.New("al: measurement reported without a query from Next")
		return nil
	}
	s.cur.issued = false
	return s.cur
}

// retry counts one failed attempt and skips the measurement once the
// retry budget is spent.
func (s *Session) retry(m *measurement) {
	if m.tries < s.c.RetryBudget {
		m.tries++
		alRetries.Inc()
		return
	}
	// Skipped: out of a shrinking pool, never into the training set.
	// The model is unchanged, so without removal a deterministic
	// strategy would re-select it forever.
	alSkipped.Inc()
	obs.Emit("al.candidate.skipped", map[string]any{"iter": s.iter, "row": m.row})
	m.span.End()
	s.cur = nil
	if m.iterSpan == nil {
		return
	}
	if s.pool != nil {
		s.pool = append(s.pool[:m.sel], s.pool[m.sel+1:]...)
	}
	s.endIteration(m)
}

// record closes an iteration whose measurement was accepted: it queues
// the point for the next model update, records the §V-B3 monitoring
// quantities, and applies the budget and AMSD convergence rules.
func (s *Session) record(m *measurement) {
	s.pendingX = append([]float64(nil), m.x...)
	s.pendingY = s.trainY[len(s.trainY)-1]
	s.hasPending = true
	if s.pool != nil && !s.c.AllowRevisit {
		s.pool = append(s.pool[:m.sel], s.pool[m.sel+1:]...)
	}

	// Test-set error and CI coverage with the current model.
	rmse, coverage := math.NaN(), math.NaN()
	if s.p.TestX == nil {
		coverage = 0
	} else if s.p.TestX.Rows() > 0 {
		preds := s.model.PredictBatch(s.p.TestX)
		rmse = stats.RMSE(gp.Means(preds), s.p.TestY)
		coverage = coverage95(regObsNoise(s.model), preds, s.p.TestY)
	}
	s.records = append(s.records, IterationRecord{
		Iter:     s.iter,
		Row:      m.row,
		SDChosen: m.pred.SD,
		AMSD:     m.amsd,
		RMSE:     rmse,
		Coverage: coverage,
		CumCost:  s.cumCost,
		LML:      regLML(s.model),
		Noise:    regNoise(s.model),
		Train:    len(s.train),
	})
	s.amsdHist = append(s.amsdHist, m.amsd)
	s.endIteration(m)
	if s.err != nil {
		return
	}

	// Budget exhaustion (§I's fixed-allocation constraint): the
	// crossing experiment is still recorded.
	if s.c.CostBudget > 0 && s.cumCost >= s.c.CostBudget {
		s.finished = true
		return
	}
	// AMSD convergence rule (§V-B4).
	if w := s.c.ConvergeWindow; w > 0 && len(s.amsdHist) > w {
		lo, hi := stats.MinMax(s.amsdHist[len(s.amsdHist)-1-w:])
		if hi-lo <= s.c.ConvergeTol*math.Max(1e-12, math.Abs(hi)) {
			s.converged = true
			s.finished = true
		}
	}
}

// endIteration closes the iteration span, saves a checkpoint at the
// configured cadence, and moves to the next iteration.
func (s *Session) endIteration(m *measurement) {
	m.iterSpan.End()
	if s.c.CheckpointPath != "" && s.iter%s.c.CheckpointEvery == 0 {
		if err := s.checkpoint(s.iter + 1).Save(s.c.CheckpointPath); err != nil {
			s.err = err
		}
	}
	s.iter++
}

// checkpoint snapshots the loop state at an iteration boundary.
func (s *Session) checkpoint(nextIter int) *Checkpoint {
	ck := &Checkpoint{
		Version: CheckpointVersion, Strategy: s.c.Strategy.Name(), Response: s.c.Response,
		Model: s.c.Model,
		Seed:  s.c.Seed, Draws: s.cs.draws, NextIter: nextIter,
		Train: s.train, TrainY: s.trainY, Pool: s.pool,
		CumCost: s.cumCost, AMSDHist: s.amsdHist,
		RefitHyper: s.refitHyper, RefitLogSN: s.refitLogSN, RefitN: s.refitN,
		HasPending: s.hasPending, PendingX: s.pendingX, PendingY: s.pendingY,
		Attempts: s.attempts,
	}
	for _, r := range s.records {
		ck.Records = append(ck.Records, ToJSONRecord(r))
	}
	return ck
}

// Model returns the current model (nil before the first fit) and the
// number of model updates that produced it.
func (s *Session) Model() (Regressor, int) { return s.model, s.updates }

// Result returns the realization so far: its records, current model,
// training rows and convergence flag.
func (s *Session) Result() Result {
	return Result{
		Strategy:  s.c.Strategy.Name(),
		Records:   s.records,
		Final:     s.model,
		TrainRows: s.train[s.seedRows:],
		Converged: s.converged,
	}
}

// drive runs a session to completion, measuring every query with
// measure — the whole of Run, ResumeFrom and RunOnline once their
// problem is set up.
func drive(s *Session, measure func(row int, x []float64, attempt int) (float64, float64, error)) (Result, error) {
	for {
		q, ok, err := s.Next()
		if err != nil {
			return Result{}, err
		}
		if !ok {
			return s.Result(), nil
		}
		if y, cost, err := measure(q.Row, q.X, q.Attempt); err != nil {
			s.Fail(err)
		} else {
			s.Observe(y, cost)
		}
	}
}

// score predicts every open candidate under the current model. A dense
// model goes through the session's posterior cache, which matches
// PredictBatch bit for bit, over the same worker chunks ScoreBatch
// uses; other tiers use ScoreBatch.
func (s *Session) score() ([]Candidate, float64) {
	g, ok := UnwrapGP(s.model)
	if !ok {
		s.post = nil
		return scoreCandidates(s.model, s.p.X, s.pool, s.p.Cost, s.c.ScoreWorkers)
	}
	if s.post == nil {
		s.post = gp.NewPoolPosterior(s.p.X)
	}
	rows := s.pool
	if rows == nil {
		rows = make([]int, s.p.X.Rows())
		for i := range rows {
			rows[i] = i
		}
	}
	preds := make([]gp.Prediction, len(rows))
	workers := resolveScoreWorkers(s.c.ScoreWorkers)
	if parChunks(len(rows), workers, func(lo, hi int) { s.post.Predict(preds[lo:hi], g, rows[lo:hi]) }) {
		scoreParallel.Inc()
	}
	return newCandidates(s.p.X, s.pool, preds, s.p.Cost)
}

// scoreCandidates scores the listed rows of x (every row when rows is
// nil) through ScoreBatch and returns them as candidates, together
// with their arithmetic mean predictive SD (see newCandidates).
func scoreCandidates(model Regressor, x *mat.Dense, rows []int, cost []float64, workers int) ([]Candidate, float64) {
	poolX := x
	if rows != nil {
		poolX = pickRows(x, rows)
	}
	return newCandidates(x, rows, ScoreBatch(model, poolX, workers), cost)
}

// newCandidates pairs preds[i] with the i-th listed row of x (row i
// when rows is nil) and returns the candidates with their arithmetic
// mean predictive SD (AMSD, §V-B3). cost, when non-nil, supplies
// Candidate.Cost per row of x.
func newCandidates(x *mat.Dense, rows []int, preds []gp.Prediction, cost []float64) ([]Candidate, float64) {
	cands := make([]Candidate, len(preds))
	var amsd float64
	for i := range cands {
		row := i
		if rows != nil {
			row = rows[i]
		}
		cands[i] = Candidate{Row: row, X: x.RawRow(row), Pred: preds[i]}
		if cost != nil {
			cands[i].Cost = cost[row]
		}
		amsd += preds[i].SD
	}
	return cands, amsd / float64(len(cands))
}

// pickRows gathers the listed rows of x into a new matrix.
func pickRows(x *mat.Dense, rows []int) *mat.Dense {
	out := mat.New(len(rows), x.Cols())
	for i, r := range rows {
		copy(out.RawRow(i), x.RawRow(r))
	}
	return out
}
