package al

import (
	"errors"
	"math/rand"

	"repro/internal/mat"
)

// Oracle runs a real experiment at input x, returning the measured
// response and its cost. It is the paper's target "online" use case
// (§VI): every AL iteration schedules and executes the next experiment
// instead of consulting a database.
type Oracle interface {
	RunExperiment(x []float64) (y, cost float64, err error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(x []float64) (y, cost float64, err error)

// RunExperiment implements Oracle.
func (f OracleFunc) RunExperiment(x []float64) (y, cost float64, err error) { return f(x) }

// RunOnline executes Active Learning against a live Oracle over a finite
// candidate grid. seeds indexes the rows of candidates measured before
// learning starts (≥ 1 required). Candidates stay available for repeated
// measurement. The returned records carry NaN RMSE (there is no held-out
// ground truth online); AMSD remains the convergence monitor.
//
// Oracle failures and non-finite measurements are retried up to
// cfg.RetryBudget additional attempts; a seed that exhausts its budget
// is dropped (an error only if no seed survives), and an AL candidate
// that exhausts it is skipped for that iteration — the model is left
// unchanged and no record is emitted. With cfg.GuardSigma > 0, AL
// measurements farther than that many predictive SDs from the model
// mean are rejected like failures. RunOnline ignores CheckpointPath.
func RunOnline(candidates *mat.Dense, seeds []int, oracle Oracle, cfg LoopConfig, rng *rand.Rand) (Result, error) {
	if oracle == nil {
		return Result{}, errors.New("al: RunOnline requires an Oracle")
	}
	if len(seeds) == 0 {
		return Result{}, errors.New("al: RunOnline requires at least one seed experiment")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	cfg.CheckpointPath = ""
	s, err := NewSession(Problem{X: candidates, Seeds: seeds}, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	return drive(s, func(_ int, x []float64, _ int) (float64, float64, error) { return oracle.RunExperiment(x) })
}
