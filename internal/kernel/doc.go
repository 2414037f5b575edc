// Package kernel implements covariance functions for Gaussian process
// regression, together with analytic gradients with respect to
// log-hyperparameters, as required for Bayesian model selection by
// gradient ascent on the log marginal likelihood (Rasmussen & Williams
// ch. 5; paper §III, Eq. 11 is the RBF the paper uses throughout).
//
// All hyperparameters are exposed in log space: positivity is automatic
// and gradient ascent is much better conditioned when length scales and
// amplitudes span orders of magnitude, as they do for performance data.
//
// # Key types
//
//   - Kernel: the covariance interface — Eval, Hyper/SetHyper in log
//     space, analytic Grad per hyperparameter, and box Bounds for the
//     optimizer.
//   - NewRBF (Eq. 11), NewMatern32/NewMatern52, NewRationalQuadratic,
//     NewPeriodic, and NewARD (per-dimension length scales for the full
//     3-variable model). The observation noise the paper adds to the RBF
//     is not a kernel here: internal/gp carries it as its own
//     hyperparameter.
//   - Matrix / MatrixGrad / CrossMatrix: Gram-matrix assembly used by
//     internal/gp's fit and predict paths.
//
// # Concurrency contract
//
// Eval and Matrix assembly are safe for concurrent readers, but kernels
// carry mutable hyperparameters: SetHyper (called by the GP optimizer)
// must not race with any other use of the same kernel instance. Give
// each concurrently fitted GP its own kernel (LoopConfig.NewKernel
// exists for exactly this).
package kernel
