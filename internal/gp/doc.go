// Package gp implements Gaussian Process Regression (GPR) as used by the
// paper (§III): a Bayesian regressor returning a full predictive
// distribution — mean and variance — at every input point, with
// hyperparameters fit by gradient ascent on the log marginal likelihood
// (LML, Eq. 12–13) under configurable noise-level bounds. It reproduces
// the 1-D/2-D fits of Figs. 3 and 5 and the LML landscapes of Fig. 4.
//
// The noise lower bound is load-bearing: §V-B4 (Fig. 7) shows that with
// σn allowed down to 1e-8 small training sets overfit (the GP believes
// its data are noise-free and the AL loop collapses), while σn ≥ 1e-1
// restores sane behaviour. Both the fixed floor and the paper's proposed
// dynamic c/√N floor (DynamicNoiseFloor) are provided.
//
// # Key types
//
//   - Config / Fit / FitCtx: model construction and LML fitting with
//     multi-restart L-BFGS; FitCtx only threads an observability
//     context.
//   - GP: the fitted model — Predict/PredictBatch for the posterior,
//     UpdateWithPoint for the O(n²) bordered-Cholesky online update,
//     Augmented for the general retrain path, LMLAt for landscapes.
//   - PoolPosterior: a per-candidate posterior cache over a fixed
//     candidate matrix that follows UpdateWithPoint in O(n) per
//     candidate, bit-identical to PredictBatch — the AL session's
//     scorer for dense models.
//   - FitLOOCV: leave-one-out pseudo-likelihood model selection, the
//     §III comparison the paper defers (ablation A3).
//   - SparseGP / FitSparse / FitSparseHyper: the inducing-point model
//     tier (SoR mean, DTC variance) with an incremental
//     UpdateWithPoint, exact at m = n — the large-n path behind
//     al.LoopConfig.Model "sparse" (and ablation A5).
//   - AutoModel / FitAuto: size-based tier selection — dense below the
//     crossover, sparse above, with an optional held-out contest.
//
// # Observability
//
// Fits open "gp.fit" spans (with a "gp.hyperopt" child covering the
// optimizer); gp.lml.evals, gp.condition.ops, gp.predict.* and
// gp.pool.rows.* count the high-frequency work. The sparse tier counts gp.sparse.fit.count and
// its three update paths (gp.sparse.update.rank1 / .grow / .refit) and
// gauges gp.sparse.inducing; AutoModel counts its tier picks under
// gp.automodel.*. See OBSERVABILITY.md.
//
// # Concurrency contract
//
// A fitted *GP is immutable through its exported query methods
// (Predict, PredictBatch, LML, Noise, …) and safe for concurrent
// readers, with two exceptions: LMLAt temporarily mutates kernel
// hyperparameters and must not race with anything, and mutating the
// value returned by Kernel or TrainX invalidates the model. Fit,
// UpdateWithPoint and Augmented construct fresh models and may run
// concurrently with each other when given distinct inputs. A
// PoolPosterior is not a snapshot: it updates its rows as it predicts,
// so concurrent Predict calls must list disjoint rows.
//
// A fitted *SparseGP (and the *AutoModel wrapping one) follows the same
// immutable-snapshot contract: every exported query method is
// read-only, and UpdateWithPoint never mutates its receiver — it
// returns a new model sharing no mutable state with the old one.
// Readers holding the previous snapshot (the AL scorer pool
// mid-iteration, a campaign status endpoint) may keep querying it,
// bitwise unchanged, while the loop goroutine builds and publishes the
// successor; swapping the visible model is the caller's
// synchronization problem (an atomic pointer suffices). This is the
// contract TestSparseConcurrentReadsDuringUpdate pins under -race.
package gp
