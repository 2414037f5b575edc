package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/al"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Campaign-level metrics (see OBSERVABILITY.md).
var (
	campaignsActive   = obs.G("serve.campaign.active")
	campaignsDone     = obs.C("serve.campaign.done")
	campaignsFailed   = obs.C("serve.campaign.failed")
	campaignsStopped  = obs.C("serve.campaign.stopped")
	observationsCount = obs.C("serve.observe.count")
	observeDuplicates = obs.C("serve.observe.duplicates")
)

// Errors surfaced to HTTP clients with specific status codes.
var (
	// ErrNoPending means no suggestion is outstanding (a step is
	// computing the next one, the journal is replaying, or the campaign
	// is terminal).
	ErrNoPending = errors.New("serve: no suggestion pending")
	// ErrSeqMismatch means the observation's sequence number does not
	// fence the pending suggestion.
	ErrSeqMismatch = errors.New("serve: suggestion sequence mismatch")
	// ErrClosed means the campaign actor has shut down.
	ErrClosed = errors.New("serve: campaign closed")
	// ErrNoModel means no model has been fitted yet (observe the seed
	// experiments first).
	ErrNoModel = errors.New("serve: campaign has no fitted model yet")
)

// campaignState is every mutable field of a campaign. Only the actor
// goroutine touches it; handlers and the stepping goroutine reach it
// through closures sent over the mailbox.
type campaignState struct {
	state        string
	records      []al.IterationRecord
	model        al.Regressor
	modelVersion int
	journal      []Observation
	pending      *Suggestion
	seq          int
	converged    bool
	err          error

	// stopping asks the step in flight to end the campaign when it
	// publishes (a campaign parked on pending stops at once).
	stopping bool

	// idem maps idempotency keys to the seq their observation was
	// applied at; rebuilt from the journal on resume so retries across
	// a crash still dedup.
	idem map[string]int
}

// Campaign is one live AL campaign: an al.Session plus the actor
// goroutine that owns its state. All exported methods are safe for
// concurrent use from any goroutine.
type Campaign struct {
	ID   string
	Spec CampaignSpec

	// jw is the append-only journal (nil disables persistence) — the
	// Store-issued Appender this campaign owns. It is touched only from
	// actor closures, so it needs no lock; the actor closes it on exit.
	// jbreaker (shared across the manager's campaigns) fails journal
	// appends fast when the backing store is sick.
	jw       Appender
	jbreaker *resilience.Breaker

	cands    *mat.Dense
	response string
	ds       *dataset.Dataset // nil for client-sourced campaigns
	rows     map[string]int   // x-key → dataset row, dataset source only

	// sess, published and the resume pin belong to whichever goroutine
	// runs the current step. Steps never overlap: the actor starts a
	// client step only when an observation answers the suggestion the
	// previous step published; finish, on the actor, drops sess once no
	// step can follow. resumeFP is 0 when there is no pin left to verify.
	sess          *al.Session
	published     int // records of sess already handed to the actor
	resumeVersion int
	resumeFP      uint64

	mailbox  chan func(*campaignState)
	stop     chan struct{} // closed by Stop; the actor acts on it
	stopOnce sync.Once
	done     chan struct{} // closed when the campaign reaches a terminal state
	closed   chan struct{} // closed by close(): actor exits

	// lifecycle guards ONLY the closed flag, never campaign state: a
	// send may not race the actor's exit, so do() holds the read lock
	// across the mailbox send and close() takes the write lock before
	// closing. State itself stays mailbox-owned and mutex-free.
	lifecycle sync.RWMutex
	isClosed  bool
}

// newCampaign builds a campaign (fresh or resumed) and starts its actor
// and a first step that replays the journal and publishes the first
// suggestion (a dataset campaign's first step drives it to the end). jw
// is the open journal appender (nil disables persistence; the campaign
// takes ownership and closes it); journal is the replay prefix;
// expectVersion/expectFP carry the checkpoint's integrity pin.
func newCampaign(id string, spec CampaignSpec, jw Appender, jbreaker *resilience.Breaker, journal []Observation, expectVersion int, expectFP uint64) (*Campaign, error) {
	c := &Campaign{
		ID:            id,
		Spec:          spec,
		jw:            jw,
		jbreaker:      jbreaker,
		resumeVersion: expectVersion,
		resumeFP:      expectFP,
		mailbox:       make(chan func(*campaignState), 16),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		closed:        make(chan struct{}),
	}
	switch spec.Source {
	case "client":
		c.cands = mat.NewFromRows(spec.Candidates)
		c.response = "y"
	case "dataset":
		ds, response, err := lookupDataset(*spec.Dataset)
		if err != nil {
			return nil, err
		}
		c.ds = ds
		c.response = response
		c.cands = ds.Matrix(nil)
		c.rows = make(map[string]int, ds.Len())
		for i := ds.Len() - 1; i >= 0; i-- {
			// First matching row wins on duplicate inputs, so lookup is
			// deterministic.
			c.rows[xKey(c.cands.RawRow(i))] = i
		}
	default:
		return nil, fmt.Errorf("%w: unknown source %q", ErrSpec, spec.Source)
	}

	// seq continues across resume: journal entry i consumed seq i+1 in
	// the life that wrote it, so the first post-resume suggestion gets
	// seq len(journal)+1 — suggestion numbering (and the idempotency
	// keys clients derive from it) is as crash-transparent as the
	// suggestion stream itself.
	st := &campaignState{state: StateRunning, journal: journal, idem: make(map[string]int), seq: len(journal)}
	if len(journal) > 0 {
		st.state = StateReplaying
	}
	// Rebuild the idempotency index: a key retried across the crash
	// answers with the seq its observation originally consumed.
	for i, o := range journal {
		if o.Key != "" {
			st.idem[o.Key] = i + 1
		}
	}
	cfg, err := spec.loopConfig(c.response)
	if err == nil {
		c.sess, err = al.NewSession(al.Problem{X: c.cands, Seeds: spec.Seeds}, cfg, rand.New(rand.NewSource(spec.Seed)))
	}
	go c.actor(st)
	if err != nil {
		c.do(func(st *campaignState) { c.finish(st, StateFailed, err) })
	} else {
		go c.run(journal)
	}
	return c, nil
}

// actor executes mailbox closures one at a time, and the Stop request
// once, until close().
func (c *Campaign) actor(st *campaignState) {
	defer func() {
		if c.jw != nil {
			c.jw.Close()
		}
	}()
	stop := c.stop
	for {
		select {
		case fn := <-c.mailbox:
			fn(st)
		case <-stop:
			stop, st.stopping = nil, true
			if st.pending != nil {
				c.finish(st, StateStopped, nil)
			}
		case <-c.closed:
			// close() holds the write lock while closing, so no sender
			// is mid-send now and none will start: drain what is queued
			// and exit.
			for {
				select {
				case fn := <-c.mailbox:
					fn(st)
				default:
					return
				}
			}
		}
	}
}

// do runs fn on the actor goroutine and waits for it. Returns false
// when the campaign is closed and fn did not run.
func (c *Campaign) do(fn func(*campaignState)) bool {
	return c.doCtx(context.Background(), fn) == nil
}

// doCtx is do with deadline propagation: it gives up while queueing for
// the mailbox or while waiting for fn to finish when ctx expires.
// If the closure has not STARTED by then it is abandoned (the actor
// skips it); if it is already running, it completes — so a ctx error
// may mean "applied but unconfirmed", the ambiguity idempotency keys
// exist to resolve.
func (c *Campaign) doCtx(ctx context.Context, fn func(*campaignState)) error {
	c.lifecycle.RLock()
	if c.isClosed {
		c.lifecycle.RUnlock()
		return ErrClosed
	}
	done := make(chan struct{})
	var abandoned atomic.Bool
	wrapped := func(st *campaignState) {
		defer close(done)
		if abandoned.Load() {
			return
		}
		fn(st)
	}
	select {
	case c.mailbox <- wrapped:
		c.lifecycle.RUnlock()
	case <-ctx.Done():
		c.lifecycle.RUnlock()
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		abandoned.Store(true)
		return ctx.Err()
	}
}

// run is the body of every goroutine that steps the session: it feeds
// the observations in (the whole journal on resume, one observation per
// client step), publishes the outcome, and for a dataset campaign keeps
// measuring until the campaign ends.
func (c *Campaign) run(feed []Observation) {
	q, more, err := c.advance(feed)
	for {
		o, measured := c.publish(q, more, err)
		if !measured {
			return
		}
		q, more, err = c.advance([]Observation{o})
	}
}

// advance hands each observation to the session and returns the query
// that follows the last, checking every model on the way against the
// checkpoint's fingerprint pin.
func (c *Campaign) advance(feed []Observation) (al.Query, bool, error) {
	q, more, err := c.next()
	for _, o := range feed {
		if err != nil || !more {
			break
		}
		c.sess.Observe(float64(o.Y), float64(o.Cost))
		q, more, err = c.next()
	}
	return q, more, err
}

// next asks the session for its next query. A session updates its model
// at most once per call, so the model version reaches the resume pin's
// version on exactly one call; a different fingerprint there fails the
// campaign instead of serving silently diverged suggestions.
func (c *Campaign) next() (al.Query, bool, error) {
	q, more, err := c.sess.Next()
	if err != nil || c.resumeFP == 0 {
		return q, more, err
	}
	if m, v := c.sess.Model(); v == c.resumeVersion {
		if fp := m.Fingerprint(); fp != c.resumeFP {
			obs.Emit("serve.resume.integrity", map[string]any{
				"campaign": c.ID, "version": v,
				"want": strconv.FormatUint(c.resumeFP, 16),
				"got":  strconv.FormatUint(fp, 16),
			})
			return al.Query{}, false, fmt.Errorf("serve: resume replay diverged from checkpoint fingerprint (version %d)", c.resumeVersion)
		}
		c.resumeFP = 0
	}
	return q, more, nil
}

// publish hands the outcome of a step to the actor in one closure: the
// model and its version, the new records, and then the next suggestion
// — or, for a dataset campaign, the journaled measurement of the next
// query, which it returns for run to feed in. It reports false
// once the step is the campaign's last, or it parked on a suggestion.
func (c *Campaign) publish(q al.Query, more bool, err error) (o Observation, measured bool) {
	model, version := c.sess.Model()
	res := c.sess.Result()
	fresh := append([]al.IterationRecord(nil), res.Records[c.published:]...)
	c.published = len(res.Records)
	c.do(func(st *campaignState) {
		st.model, st.modelVersion = model, version
		st.records = append(st.records, fresh...)
		st.converged = res.Converged
		switch {
		case err != nil:
			c.finish(st, StateFailed, err)
		case !more:
			c.finish(st, StateDone, nil)
		case st.stopping:
			c.finish(st, StateStopped, nil)
		case c.ds != nil:
			o, measured = c.measure(st, q.X), true
		default:
			st.seq++
			st.pending = &Suggestion{Seq: st.seq, X: q.X}
			st.state = StateWaiting
		}
	})
	return o, measured
}

// measure performs one dataset experiment on the actor: it reads the
// dataset row at x and journals the observation before run feeds it
// to the session.
func (c *Campaign) measure(st *campaignState, x []float64) Observation {
	row := c.rows[xKey(x)]
	o := Observation{X: x, Y: al.JSONFloat(c.ds.RespAt(c.response, row)), Cost: al.JSONFloat(c.ds.CostAt(row))}
	if err := c.appendJournal(st, o); err != nil {
		// Skipping one entry would corrupt replay order, so stop
		// journaling entirely: the valid prefix still replays and resume
		// re-measures the rest from the dataset.
		if c.jw != nil {
			c.jw.Disable()
		}
		obs.Emit("serve.journal.disabled", map[string]any{"campaign": c.ID, "err": err.Error()})
	}
	st.journal = append(st.journal, o)
	st.state = StateRunning
	observationsCount.Inc()
	return o
}

// finish moves the campaign to a terminal state and writes the
// journal's final line. Runs on the actor, at most once.
func (c *Campaign) finish(st *campaignState, state string, err error) {
	st.state, st.err = state, err
	st.pending = nil
	// No step runs after this one, and the actor state holds the
	// published model: a terminal campaign keeps no session (and no
	// candidate cache) for as long as the manager keeps it.
	c.sess = nil
	switch state {
	case StateDone:
		campaignsDone.Inc()
	case StateStopped:
		campaignsStopped.Inc()
	default:
		campaignsFailed.Inc()
	}
	c.appendFinal(st)
	obs.Emit("serve.campaign.finished", map[string]any{
		"campaign": c.ID, "state": st.state, "records": len(st.records),
	})
	close(c.done)
}

// appendFinal writes the terminal journal line (best effort: a failure
// only costs the informational trailer, never the observations).
func (c *Campaign) appendFinal(st *campaignState) {
	if c.jw == nil {
		return
	}
	var fp uint64
	if st.model != nil {
		fp = st.model.Fingerprint()
	}
	errMsg := ""
	if st.err != nil {
		errMsg = st.err.Error()
	}
	if err := c.jw.AppendFinal(st.state, errMsg, st.converged, st.modelVersion, fp); err != nil {
		journalAppendErrs.Inc()
		obs.Emit("serve.journal.error", map[string]any{"campaign": c.ID, "err": err.Error()})
	}
}

// Stop asks the campaign to end as stopped and returns without waiting
// (Wait does): the actor ends it at once when it is parked on a
// suggestion, otherwise when the step in flight publishes. Safe to call
// more than once; a terminal campaign stays as it is.
func (c *Campaign) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// close shuts the actor down. Callers must Stop and Wait first
// (Manager.remove does); afterwards every Campaign method returns
// ErrClosed.
func (c *Campaign) close() {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	if !c.isClosed {
		c.isClosed = true
		close(c.closed)
	}
}

// Wait blocks until the campaign is terminal: done, failed, or stopped.
func (c *Campaign) Wait() { <-c.done }

// Suggest returns the pending suggestion, ErrNoPending when none is
// outstanding (a step is in flight, or the campaign is replaying or
// terminal), or ErrClosed.
func (c *Campaign) Suggest() (Suggestion, error) {
	return c.SuggestCtx(context.Background())
}

// SuggestCtx is Suggest with deadline propagation.
func (c *Campaign) SuggestCtx(ctx context.Context) (Suggestion, error) {
	var out Suggestion
	var err error
	if derr := c.doCtx(ctx, func(st *campaignState) {
		if st.pending == nil {
			err = fmt.Errorf("%w (state %s)", ErrNoPending, st.state)
			return
		}
		out = Suggestion{Seq: st.pending.Seq, X: append([]float64(nil), st.pending.X...)}
	}); derr != nil {
		return Suggestion{}, derr
	}
	return out, err
}

// Observe applies a measurement to the pending suggestion identified by
// seq. See ObserveKeyed.
func (c *Campaign) Observe(seq int, y, cost float64) error {
	_, err := c.ObserveKeyed(context.Background(), seq, y, cost, "")
	return err
}

// ObserveKeyed applies a measurement to the pending suggestion
// identified by seq, with deadline propagation and idempotent retries.
// The observation is journaled (write+fsync) BEFORE the next step starts
// and before the call returns, so an acknowledged observation is
// durable — and a journal append failure REJECTS the observation
// (ErrJournal → HTTP 503) without starting a step, so an observation
// is never acknowledged unjournaled. No model work happens before the
// ack: the step runs on its own goroutine. key, when non-empty, dedups
// retries: resubmitting an already-applied key returns the seq it was
// applied at instead of a seq-mismatch error, which makes at-least-once
// delivery (retries after lost responses, duplicated requests) safe.
func (c *Campaign) ObserveKeyed(ctx context.Context, seq int, y, cost float64, key string) (int, error) {
	applied := seq
	var err error
	if derr := c.doCtx(ctx, func(st *campaignState) {
		if key != "" {
			if prev, ok := st.idem[key]; ok {
				applied = prev
				observeDuplicates.Inc()
				return
			}
		}
		if st.pending == nil {
			err = fmt.Errorf("%w (state %s)", ErrNoPending, st.state)
			return
		}
		if st.pending.Seq != seq {
			err = fmt.Errorf("%w: got seq %d, pending is %d", ErrSeqMismatch, seq, st.pending.Seq)
			return
		}
		o := Observation{
			X:    st.pending.X,
			Y:    al.JSONFloat(y),
			Cost: al.JSONFloat(cost),
			Key:  key,
		}
		if err = c.appendJournal(st, o); err != nil {
			return
		}
		st.journal = append(st.journal, o)
		if key != "" {
			st.idem[key] = seq
		}
		// The next step runs off the request path: the ack returns now,
		// and the step publishes the next suggestion when it is ready.
		st.pending = nil
		st.state = StateRunning
		go c.run([]Observation{o})
	}); derr != nil {
		if errors.Is(derr, ErrClosed) {
			return 0, ErrClosed
		}
		return 0, derr
	}
	if err == nil {
		observationsCount.Inc()
	}
	return applied, err
}

// appendJournal durably appends one observation (through the journal
// breaker when one is wired). Runs on the actor goroutine.
func (c *Campaign) appendJournal(st *campaignState, o Observation) error {
	if c.jw == nil {
		return nil
	}
	var fp uint64
	if st.model != nil {
		fp = st.model.Fingerprint()
	}
	op := func() error { return c.jw.AppendObs(o, st.modelVersion, fp) }
	var err error
	if c.jbreaker != nil {
		err = c.jbreaker.Do(op)
	} else {
		err = op()
	}
	if err != nil {
		journalAppendErrs.Inc()
		obs.Emit("serve.journal.error", map[string]any{"campaign": c.ID, "err": err.Error()})
		if errors.Is(err, resilience.ErrOpen) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	journalAppends.Inc()
	return nil
}

// Model returns the current model snapshot and its version for
// prediction. The returned Regressor is immutable; callers may use it
// concurrently.
func (c *Campaign) Model() (al.Regressor, int, error) {
	var m al.Regressor
	var v int
	if !c.do(func(st *campaignState) { m, v = st.model, st.modelVersion }) {
		return nil, 0, ErrClosed
	}
	if m == nil {
		return nil, 0, ErrNoModel
	}
	return m, v, nil
}

// Records returns a copy of the iteration records so far.
func (c *Campaign) Records() ([]al.IterationRecord, error) {
	var out []al.IterationRecord
	if !c.do(func(st *campaignState) {
		out = append(out, st.records...)
	}) {
		return nil, ErrClosed
	}
	return out, nil
}

// Status snapshots the campaign for the HTTP API. withRecords controls
// whether the full per-iteration history is included (list views leave
// it out).
func (c *Campaign) Status(withRecords bool) (CampaignStatus, error) {
	return c.StatusCtx(context.Background(), withRecords)
}

// StatusCtx is Status with deadline propagation.
func (c *Campaign) StatusCtx(ctx context.Context, withRecords bool) (CampaignStatus, error) {
	strat, _ := c.Spec.strategy()
	out := CampaignStatus{
		ID:       c.ID,
		Name:     c.Spec.Name,
		Source:   c.Spec.Source,
		Strategy: strat.Name(),
	}
	if derr := c.doCtx(ctx, func(st *campaignState) {
		out.State = st.state
		out.Observations = len(st.journal)
		out.ModelVersion = st.modelVersion
		out.Converged = st.converged
		if st.model != nil {
			out.Fingerprint = st.model.Fingerprint()
		}
		if st.pending != nil {
			out.Pending = &Suggestion{Seq: st.pending.Seq, X: append([]float64(nil), st.pending.X...)}
		}
		if st.err != nil {
			out.Error = st.err.Error()
		}
		if withRecords {
			out.Records = make([]al.JSONRecord, len(st.records))
			for i, r := range st.records {
				out.Records[i] = al.ToJSONRecord(r)
			}
		}
	}); derr != nil {
		return CampaignStatus{}, derr
	}
	return out, nil
}

// xKey encodes an input point as the exact bit pattern of its
// coordinates — the dataset row lookup and prediction cache key must
// distinguish points that differ in the last ulp.
func xKey(x []float64) string {
	var b strings.Builder
	b.Grow(17 * len(x))
	for _, v := range x {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		b.WriteByte(',')
	}
	return b.String()
}
