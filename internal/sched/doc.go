// Package sched simulates the SLURM batch environment the paper used to
// run HPGMG-FE job sweeps (§IV): a discrete-event scheduler over a
// fixed pool of nodes, FIFO with optional EASY backfill, producing
// per-job accounting records equivalent to `sacct` output. Only
// hpgmg.RunThroughScheduler drives it, and only tests call that: the
// dataset generators (hpgmg.GeneratePerformance/GeneratePower) and the
// batched AL ablation (A4) run their jobs without a scheduler.
//
// # Key types
//
//   - Config / New / Scheduler: the simulated cluster (node count,
//     cores per node, queueing Policy).
//   - Job / Submit: one batch submission with core request, walltime
//     estimate and an exactly-once Run callback producing the actual
//     runtime.
//   - Record / Drain: the accounting rows (submit/start/end, state
//     COMPLETED or TIMEOUT).
//   - Utilization / PeakCoresInUse / WaitStats: post-hoc queue
//     analytics over a drained record set.
//
// # Observability
//
// Submissions and completions feed sched.jobs.* counters, the
// sched.job.wait and sched.job.elapsed histograms (simulated seconds,
// value buckets rather than wall-clock timer buckets), and the
// sched.makespan gauge; job lifecycle events are emitted to the JSONL
// sink (see OBSERVABILITY.md).
//
// # Concurrency contract
//
// A *Scheduler is single-threaded simulation state: Submit and Drain
// must not be called concurrently. Distinct Scheduler instances are
// independent and may run in parallel.
package sched
