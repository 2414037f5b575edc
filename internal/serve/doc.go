// Package serve turns the Active Learning core into a long-running,
// concurrent campaign service: clients create campaigns over HTTP,
// submit observed measurements, and read back next-experiment
// suggestions, batched GP predictions, and per-iteration progress —
// the paper's §VI online setting operated as a network service instead
// of a batch CLI.
//
// # Architecture
//
// A Manager owns a set of Campaigns. Each campaign is one al.Session —
// the same stepped AL iteration al.Run and al.RunOnline drive — plus an
// actor goroutine:
//
//   - The actor owns all mutable campaign state (records, current model
//     and its version, pending suggestion, observation journal). There
//     is no per-campaign mutex: handlers send closures over the campaign
//     mailbox and the actor executes them one at a time. Model pointers
//     cross goroutines freely — a fitted model is immutable and safe for
//     concurrent reads. A client campaign parked on a suggestion owns
//     the actor and no other goroutine.
//
//   - An accepted observation is journaled and acknowledged inside an
//     actor closure, which starts one goroutine for the next step: it
//     feeds the observation to the session, asks it for the next query,
//     and publishes model, version, records and suggestion in one
//     closure. Reads never wait for a fit — while a step is in flight
//     suggest answers ErrNoPending. A dataset campaign instead runs one
//     goroutine that steps its session to completion. Because the
//     session IS the loop al.RunOnline runs, a campaign driven over
//     HTTP produces an iteration trace identical to the equivalent
//     direct call — enforced by TestClientCampaignTraceMatchesRunOnline,
//     the stress suite, and the chaos suite.
//
// # Durability
//
// Campaign persistence is event-sourced: an append-only JSONL journal
// (one file per campaign — a header line, one line per accepted
// observation, and a terminal line when the campaign ends) stores the
// campaign spec plus the ordered oracle returns, not a model snapshot.
// Each record costs one write plus one fsync, and every observation is
// journaled BEFORE it is acknowledged — for client campaigns a journal
// failure rejects the observation with ErrJournal (fail closed) rather
// than ack data that would not survive a crash. A crash can tear at
// most the final, unacknowledged line; the loader drops a torn tail
// and resumes from the last complete record. Resume feeds the journal
// back into a fresh session, one Observe per entry, which
// deterministically replays every fit, rejection, retry and RNG draw,
// so the rebuilt state — records, model, and the subsequent suggestion
// stream — is byte-identical to the uninterrupted run. gp.Fingerprint
// guards the invariant: the journal records the model fingerprint at
// its model version, and a replay that reaches that version with a
// different fingerprint fails the campaign instead of serving silently
// diverged suggestions.
//
// # Storage
//
// Persistence sits behind the Store interface: DirStore (one fsynced
// file per campaign under a checkpoint directory) for production,
// MemStore for tests and for cluster nodes whose durability comes from
// replication. Raw journal bytes are the unit of exchange — Export and
// Import move a campaign between stores byte-for-byte, and the
// canonical line encoders (EncodeJournalHeader/Obs/Final) guarantee
// that the same campaign produces identical bytes in every store. That
// byte identity is what lets internal/ring ship journals between
// replicas and replay them anywhere with the same fingerprinted trace;
// TestStoreReplayEquivalence pins it.
//
// # Shutdown contract
//
// Manager.Shutdown is idempotent and safe to call concurrently — with
// itself, with Delete/Release, and with in-flight suggest, observe, and
// predict traffic. Exactly one caller performs the drain: it marks the
// manager closed (new work is rejected with ErrClosed), stops every
// campaign, and waits for in-flight steps to finish under its context.
// Every other call, concurrent or later, waits for that drain and
// returns its outcome; a caller whose own context dies first gets that
// context error, but once the drain has finished even an
// already-expired context gets the real result. A suggest or observe
// racing the shutdown either completes fully — journaled, replicated,
// acknowledged — or is rejected with ErrClosed; it is never
// half-applied. TestManagerShutdownConcurrentWithTraffic pins the
// contract under the race detector.
//
// # Resilience
//
// The HTTP layer wraps the campaign core in production defenses
// (internal/resilience, DESIGN.md §10): per-route context deadlines
// that the actor honors, a bounded admission gate that sheds
// excess load with 429 + Retry-After and flips /healthz to "degraded"
// past its high watermark, circuit breakers around the scoring pool
// and journal writes, and idempotent observes — a client that sends an
// Idempotency-Key header may blindly retry an ambiguous ack, because a
// duplicate key re-acks the original seq instead of re-feeding the
// model. Suggestion seq numbering continues across crash/resume, so
// seq-derived keys stay collision-free for the campaign's whole life.
//
// # Scoring and caching
//
// Batched /predict inference reuses the loop's chunked scorer
// (al.ScoreBatch) under a Manager-wide semaphore that bounds the number
// of concurrent scoring operations, and fills a server-wide LRU
// prediction cache keyed on (campaign, model version, input point).
// A model-version bump simply changes the key — stale entries are never
// served and age out of the LRU; no explicit invalidation pass exists
// or is needed.
//
// See DESIGN.md §9 for the campaign lifecycle state machine and
// OBSERVABILITY.md for the serve.* metric and span catalog.
package serve
