// Package mat provides the dense linear algebra used throughout the
// repository: matrices, vectors, goroutine-parallel products, the
// Cholesky factorization, and triangular solves. It is a
// deliberately small, stdlib-only kernel sized for Gaussian-process
// workloads (dense symmetric positive-definite systems with a few
// thousand unknowns) — the computational substrate behind every GP fit
// in the paper's §III machinery.
//
// # Key types
//
//   - Dense / Vec: row-major matrix and vector with raw-slice access for
//     hot loops.
//   - Cholesky: A = L·Lᵀ with SolveVec/LogDet/QuadForm and the O(n²)
//     bordered Extended update. NewCholeskyParallel is the
//     goroutine-parallel blocked variant for large systems;
//     NewCholeskyJitter retries with diagonal jitter for nearly singular
//     covariances.
//   - TriPacked: the packed factor a fitted GP stores. Its Extended is
//     the bordered update behind online GP conditioning, and
//     ForwardSubstLast extends a triangular solve by that bordered row.
//   - Mul / MulT / SyrkT / MulVec and friends: parallel products used by
//     kernels and predictions.
//
// # Observability
//
// Every factorization counts itself: mat.cholesky.count,
// mat.cholesky.duration, mat.cholesky.size and
// mat.cholesky.parallel.count (see OBSERVABILITY.md). Cholesky calls are
// the O(n³) unit of account for the cost argument the paper makes —
// whatever an AL iteration does, it shows up here.
//
// # Concurrency contract
//
// Dense and Vec are plain data with no internal locking: concurrent
// reads are safe, concurrent writes (or a write racing reads) are the
// caller's responsibility. A constructed *Cholesky is immutable and safe
// for concurrent use. NewCholeskyParallel manages its own worker
// goroutines and is safe to call from multiple goroutines on distinct
// inputs.
package mat
