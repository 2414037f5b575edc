package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// AL-loop metrics (see OBSERVABILITY.md). Each iteration of a Session
// opens an "al.iteration" span with "al.model.update",
// "al.score" and "al.select" children; the counters tally work volumes
// the spans do not capture. The fault-path counters (al.retries,
// al.rejected, al.skipped) stay at zero in healthy runs.
var (
	candidatesEvaluated = obs.C("al.candidates.evaluated")
	refits              = obs.C("al.refit.count")
	conditionUpdates    = obs.C("al.condition.count")
	experiments         = obs.C("al.experiments.count")
	poolSize            = obs.G("al.pool.size")
	alRetries           = obs.C("al.retries")
	alRejected          = obs.C("al.rejected")
	alSkipped           = obs.C("al.skipped")
)

// LoopConfig drives one Active Learning realization over a partitioned
// dataset (§IV: Initial seeds the GP, Active is the candidate pool, Test
// measures RMSE).
type LoopConfig struct {
	// Response names the dataset response column to model; required.
	Response string

	// Strategy picks the next experiment; required.
	Strategy Strategy

	// NewKernel constructs a fresh kernel for a given input
	// dimensionality; defaults to an isotropic RBF(1, 1).
	NewKernel func(dims int) kernel.Kernel

	// Iterations bounds the number of AL steps; 0 means run until the
	// convergence rule (or pool exhaustion for non-revisiting
	// strategies).
	Iterations int

	// NoiseFloor is the σn lower bound passed to the GP — the paper's
	// overfitting control (Fig. 7). Default gp.DefaultNoiseFloor.
	NoiseFloor float64

	// DynamicFloorC, when positive, activates the paper's proposed
	// adaptive floor σn ≥ c/√N (§V-B4) with this c, overriding
	// NoiseFloor as training data accumulates.
	DynamicFloorC float64

	// Restarts is the number of random LML-optimizer restarts per fit
	// (default 2).
	Restarts int

	// ReoptimizeEvery refits hyperparameters every k-th iteration
	// (default 1 = every iteration); between refits the previous
	// hyperparameters are reused and only the posterior is updated.
	ReoptimizeEvery int

	// AllowRevisit keeps selected points in the pool so noisy points can
	// be re-measured (§III's requirement; default true). EMCM-style
	// strategies need this false.
	AllowRevisit bool

	// ConvergeWindow and ConvergeTol terminate the loop early when the
	// AMSD changes by less than ConvergeTol (relative) over the last
	// ConvergeWindow iterations (§V-B4's practical termination rule).
	// Zero disables early termination.
	ConvergeWindow int
	ConvergeTol    float64

	// Normalize standardizes the response inside each GP fit. The
	// paper's datasets are log-transformed to O(1) so this is off by
	// default; enable it for raw responses whose scale would otherwise
	// push the LML optimizer into the noise-only local optimum. The
	// noise floor then applies in normalized units.
	Normalize bool

	// CostBudget, when positive, stops the loop once the cumulative
	// experiment cost reaches it — the paper's motivating constraint
	// ("a fixed allocation on an HPC machine or a fixed maximum budget
	// in a cloud environment", §I). The experiment that crosses the
	// budget is still executed and recorded.
	CostBudget float64

	// ScoreWorkers sizes the candidate-scorer worker pool: 0 defers to
	// the process default (SetDefaultScoreWorkers, falling back to
	// runtime.GOMAXPROCS — scoring is parallel by default), 1 forces
	// serial scoring, n > 1 uses n workers. Each prediction depends only
	// on its own pool row and results are written by index, so serial
	// and parallel scoring produce identical selection traces for a
	// fixed seed.
	ScoreWorkers int

	// Measure, when non-nil, performs the experiment for a selected
	// dataset row instead of reading the dataset: attempt is the 0-based
	// per-row attempt count (retries and revisits keep counting up).
	// Errors and rejected observations are retried per RetryBudget. The
	// default reads ds.RespAt/ds.CostAt, routed through Faults when one
	// is configured.
	Measure func(row int, x []float64, attempt int) (y, cost float64, err error)

	// Faults, when non-nil (and Measure is nil), wires a fault injector
	// into the default measurement: node/job failures become measurement
	// errors, corruption maps the response through Corrupt, and
	// stragglers inflate the experiment cost. Nil runs fault-free.
	Faults *faults.Injector

	// RetryBudget is the number of additional attempts for a selected
	// candidate whose measurement fails or whose observation is rejected
	// (default 2; negative disables retries). When the budget is
	// exhausted the candidate is skipped: dropped from the pool without
	// entering the training set, and the iteration leaves no record.
	RetryBudget int

	// GuardSigma, when positive, rejects measured responses farther than
	// GuardSigma predictive standard deviations (latent SD and σn
	// combined) from the model mean at the selected candidate — the
	// gross-outlier guard in front of model conditioning. Non-finite
	// observations are always rejected. Zero disables the distance
	// guard.
	GuardSigma float64

	// CheckpointPath, when set, saves the loop state as JSON after every
	// CheckpointEvery-th iteration (atomically: temp file + rename), for
	// al.Resume. Requires a nil rng argument to Run — the loop then owns
	// a counting RNG seeded from Seed whose position the checkpoint
	// records.
	CheckpointPath string

	// CheckpointEvery is the checkpoint cadence in iterations
	// (default 1).
	CheckpointEvery int

	// Seed seeds the loop-owned RNG used when Run's rng argument is nil
	// (default 1, matching the historical default stream).
	Seed int64

	// Model selects the regression tier backing the loop: "dense" (or
	// empty — the historical exact GP), "sparse" (inducing-point
	// approximation, O(n·m²) refits and O(n·m) incremental updates for
	// campaigns past ~10⁴ points), or "auto" (dense below
	// ModelOptions.Crossover, sparse above, held-out contest between).
	Model string

	// ModelOptions tunes the sparse and auto tiers; ignored for dense.
	ModelOptions ModelOptions
}

func (c *LoopConfig) withDefaults() (LoopConfig, error) {
	out := *c
	if out.Response == "" {
		return out, errors.New("al: LoopConfig.Response is required")
	}
	if out.Strategy == nil {
		return out, errors.New("al: LoopConfig.Strategy is required")
	}
	if out.NewKernel == nil {
		out.NewKernel = func(int) kernel.Kernel { return kernel.NewRBF(1, 1) }
	}
	if out.NoiseFloor <= 0 {
		out.NoiseFloor = gp.DefaultNoiseFloor
	}
	if out.Restarts <= 0 {
		out.Restarts = 2
	}
	if out.ReoptimizeEvery <= 0 {
		out.ReoptimizeEvery = 1
	}
	if out.RetryBudget == 0 {
		out.RetryBudget = 2
	} else if out.RetryBudget < 0 {
		out.RetryBudget = 0
	}
	if out.CheckpointEvery <= 0 {
		out.CheckpointEvery = 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if !validModel(out.Model) {
		return out, fmt.Errorf("al: unknown model tier %q (want dense, sparse, or auto)", out.Model)
	}
	return out, nil
}

// IterationRecord captures the monitoring quantities of §V-B3 after one
// AL step.
type IterationRecord struct {
	Iter     int     // 1-based iteration number
	Row      int     // dataset row selected
	SDChosen float64 // σ_f(x) at the selected candidate
	AMSD     float64 // arithmetic mean SD across the pool
	RMSE     float64 // error on the Test set (Eq. 2)
	Coverage float64 // fraction of Test points inside the 95% predictive CI
	CumCost  float64 // cumulative experiment cost (core-seconds)
	LML      float64 // log marginal likelihood of the fitted GP
	Noise    float64 // fitted σn
	Train    int     // training-set size after this step
}

// Result is one AL realization. Final is the model tier the loop ran
// (dense unless LoopConfig.Model says otherwise); UnwrapGP recovers the
// concrete *gp.GP when the tier is dense.
type Result struct {
	Strategy  string
	Records   []IterationRecord
	Final     Regressor
	TrainRows []int // dataset rows in training order (Initial first)
	Converged bool  // true when the AMSD rule stopped the loop early
}

// Run executes Active Learning on ds under the given partition. With a
// nil rng the loop owns a deterministic counting RNG seeded from
// cfg.Seed (required when CheckpointPath is set, so the RNG position can
// be checkpointed); the stream is identical to
// rand.New(rand.NewSource(seed)).
func Run(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, rng *rand.Rand) (Result, error) {
	if _, err := cfg.withDefaults(); err != nil {
		return Result{}, err
	}
	if err := part.Validate(ds); err != nil {
		return Result{}, err
	}
	if len(part.Initial) == 0 || len(part.Active) == 0 {
		return Result{}, errors.New("al: partition needs nonempty Initial and Active sets")
	}
	s, err := NewSession(datasetProblem(ds, part, cfg.Response), cfg, rng)
	if err != nil {
		return Result{}, err
	}
	return drive(s, measureFunc(ds, cfg))
}

// datasetProblem is the offline setting of §IV: every dataset row is a
// candidate at its recorded cost, Active is the shrinking pool, Initial
// arrives already observed, and Test (nil holds out none) measures RMSE.
func datasetProblem(ds *dataset.Dataset, part dataset.Partition, response string) Problem {
	x := ds.Matrix(nil)
	cost := make([]float64, ds.Len())
	for i := range cost {
		cost[i] = ds.CostAt(i)
	}
	return Problem{
		X:      x,
		Pool:   part.Active,
		Cost:   cost,
		TestX:  pickRows(x, part.Test),
		TestY:  ds.RespVec(response, append([]int{}, part.Test...)), // nil would read every row
		Train:  part.Initial,
		TrainY: ds.RespVec(response, part.Initial),
	}
}

// measureFunc resolves the experiment executor: the caller's Measure,
// or the dataset lookup optionally routed through the fault injector.
// With a nil injector the default is exactly the historical behavior
// (y = ds.RespAt, cost = ds.CostAt), keeping fault-free traces
// unchanged.
func measureFunc(ds *dataset.Dataset, c LoopConfig) func(row int, x []float64, attempt int) (float64, float64, error) {
	if c.Measure != nil {
		return c.Measure
	}
	inj := c.Faults
	resp := c.Response
	return func(row int, x []float64, attempt int) (float64, float64, error) {
		if inj.NodeFails(row, attempt) {
			return 0, 0, fmt.Errorf("al: node failure during experiment at row %d (attempt %d)", row, attempt)
		}
		if inj.JobFails(row, attempt) {
			return 0, 0, fmt.Errorf("al: experiment failed at row %d (attempt %d)", row, attempt)
		}
		y, _ := inj.Corrupt(row, attempt, ds.RespAt(resp, row))
		cost := ds.CostAt(row) * inj.Slowdown(row, attempt)
		return y, cost, nil
	}
}

// guardRejects applies the observation guard: non-finite responses are
// always rejected; with guard > 0, responses farther than guard
// predictive SDs (latent and noise combined) from the model mean at the
// candidate are too.
func guardRejects(guard float64, pred gp.Prediction, obsNoise, y float64) bool {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return true
	}
	if guard <= 0 {
		return false
	}
	sd := math.Sqrt(pred.SD*pred.SD + obsNoise*obsNoise)
	return math.Abs(y-pred.Mean) > guard*sd
}

// coverage95 returns the fraction of test targets inside the 95%
// predictive interval μ ± 2·√(σ_f² + σn²) — the calibration check behind
// the paper's "prediction confidence" goal. preds are latent-function
// predictions; the observation noise sn (response units) is added here.
func coverage95(sn float64, preds []gp.Prediction, testY []float64) float64 {
	if len(preds) == 0 {
		return math.NaN()
	}
	inside := 0
	for i, p := range preds {
		sd := math.Sqrt(p.SD*p.SD + sn*sn)
		if math.Abs(testY[i]-p.Mean) <= 2*sd {
			inside++
		}
	}
	return float64(inside) / float64(len(preds))
}
