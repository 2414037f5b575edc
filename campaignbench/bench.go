package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// bench is one set-up of a workload: the running service, the steering
// clients with the campaigns they hold, and the parked campaigns.
type bench struct {
	p      *plan
	rig    *rig
	cal    *calibrator
	tr     *tracer
	hc     *http.Client
	conns  int
	steer  []*steerer
	parked []*campaignRun

	// The predict streams continue across rounds and passes, so no
	// batch is sent twice.
	openNext   int   // index of the next open-loop batch
	closedNext []int // per connection, index of its next closed-loop batch

	failed atomic.Bool // set on the first error; every loop stops
	errMu  sync.Mutex
	err    error
}

// setup starts the service and brings every campaign the run begins
// with to its first model-chosen suggestion: one per steering client
// and, for the dashboard, the parked campaigns fitted with their steps.
func setup(p *plan, dir string, tr *tracer, clients, conns int) (*bench, error) {
	b := &bench{p: p, tr: tr, conns: conns, closedNext: make([]int, conns)}
	var err error
	if p.w.ring {
		b.rig, err = newRingRig(dir, tr)
	} else {
		b.rig, err = newServerRig(dir, p.w.persist, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	tp := newTransport(conns)
	b.hc = &http.Client{Transport: tp}
	b.rig.stops = append([]func(){tp.CloseIdleConnections}, b.rig.stops...)

	parkers := make([]*steerer, clients)
	for j := range parkers {
		parkers[j] = b.steerer()
		b.steer = append(b.steer, b.steerer())
	}
	err = parallel(clients, clients, func(j int) error {
		for k := j; k < p.w.parked; k += clients {
			run, err := parkers[j].open(p.spec(domainParked, k, 0), k, 0)
			if err == nil {
				err = parkers[j].fit(run, p.w.parkedSteps)
			}
			if err != nil {
				return fmt.Errorf("park campaign %d: %w", k, err)
			}
		}
		run, err := b.steer[j].open(p.spec(domainSpec, j, 0), j, 0)
		if err == nil {
			err = b.steer[j].fit(run, 0)
		}
		return err
	})
	for _, s := range parkers {
		b.parked = append(b.parked, s.runs...)
	}
	if err != nil {
		b.rig.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return b, nil
}

func (b *bench) steerer() *steerer {
	return &steerer{c: b.client(nil), g: b.p.g}
}

func (b *bench) client(rec *recorder) *client {
	return &client{hc: b.hc, base: b.rig.url, rec: rec, tr: b.tr}
}

func (b *bench) stopped() bool { return b.failed.Load() }

// fail records the run's first error and stops every loop.
func (b *bench) fail(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
	b.failed.Store(true)
}

func (b *bench) firstErr() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// passResult is what one measured pass collected: every sample pooled
// in rec, and each round on its own.
type passResult struct {
	rec    *recorder
	rounds []roundResult
	model  obsDelta
	proc   procDelta
}

// sampleEvery keeps one served prediction in this many for the gate.
const sampleEvery = 50

// pass measures for total wall time: the workload's rounds of the
// write, open-loop and closed-loop phases, split by its shares. With
// direct, every other closed-loop batch goes straight to
// Manager.PredictCtx instead of over HTTP.
func (b *bench) pass(total time.Duration, direct bool) (*passResult, error) {
	res := &passResult{rec: newRecorder()}
	proc0 := readProc()
	for r := 0; r < b.p.w.rounds; r++ {
		// Every round starts from a collected heap, so a round does not
		// pay for the garbage of the one before.
		runtime.GC()
		if err := b.round(res, total/time.Duration(b.p.w.rounds), direct); err != nil {
			return res, err
		}
	}
	res.proc = readProc().minus(proc0)
	return res, nil
}

// roundResult is what one round collected, with the wall time of its
// write and closed-loop phases.
type roundResult struct {
	rec                 *recorder
	writeDur, closedDur time.Duration
	peakMB              float64 // peak resident memory during the round
}

// round runs each phase once for its share of total.
func (b *bench) round(res *passResult, total time.Duration, direct bool) error {
	w := b.p.w
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	rr := roundResult{rec: newRecorder()}
	mem := startPeakSampler()
	defer func() {
		rr.peakMB = mem.stop()
		res.rec.merge(rr.rec)
		res.rounds = append(res.rounds, rr)
	}()

	b.calibrate(rr.rec)
	for _, s := range b.steer {
		s.c.rec = rr.rec
	}
	obs0 := readObs()
	start := time.Now()
	parallel(len(b.steer), len(b.steer), func(j int) error {
		if err := b.steer[j].drive(b.p, j, start.Add(share(w.writeShare)), b.stopped); err != nil {
			b.fail(fmt.Errorf("steering client %d: %w", j, err))
		}
		return nil
	})
	rr.writeDur = time.Since(start)
	res.model = res.model.plus(readObs().minus(obs0))
	for _, s := range b.steer {
		s.c.rec = nil
	}
	if err := b.firstErr(); err != nil {
		return err
	}

	b.calibrate(rr.rec)
	targets := b.targets()
	rc := b.client(rr.rec)
	var nSamples atomic.Int64
	var mu sync.Mutex
	var samples []predictSample
	predict := func(run *campaignRun, pts [][]float64, parent ref) bool {
		var resp serve.PredictResponse
		if _, err := rc.call("predict", http.MethodPost, "/campaigns/"+run.ID+"/predict", serve.PredictRequest{Points: pts}, &resp, parent); err != nil {
			return false
		}
		rr.rec.add("predict.cache_hits", int64(resp.CacheHits))
		rr.rec.add("predict.points", int64(len(pts)))
		if nSamples.Add(1)%sampleEvery == 0 {
			mu.Lock()
			samples = append(samples, predictSample{ID: run.ID, Pts: pts, Resp: resp})
			mu.Unlock()
		}
		return true
	}

	// The open loop's rate is set at the reference speed and slowed with
	// the host, as measured by this round's calibrations so far: at a
	// fixed rate, a host going at half speed would fill the queue, and
	// the latency would measure the queue rather than the service.
	rate := w.openRate * calRefMs / mean(rr.rec.get("cal").sorted())
	n := int(rate * share(w.openShare).Seconds())
	base := b.openNext
	b.openNext += n
	openLoop(realClock{}, rate, n, b.conns, func(i int, due time.Time) bool {
		t, pts := b.p.batch(domainOpen, 0, base+i, len(targets))
		root := b.tr.startAt(layerWait, "predict", ref{}, due)
		defer root.end()
		return predict(targets[t], pts, root.ref())
	}, b.stopped, rr.rec.get("predict.open"), rr.rec.get("lag"))

	b.calibrate(rr.rec)
	calls := rr.rec.get("direct")
	rr.closedDur = closedLoop(b.conns, time.Now().Add(share(w.closedShare)), b.stopped, func(c int) {
		i := b.closedNext[c]
		b.closedNext[c]++
		t, pts := b.p.batch(domainClosed, c, i, len(targets))
		run := targets[t]
		if direct && i%2 == 1 {
			if err := directPredict(b.rig.owner(run.ID), run.ID, pts, calls); err != nil {
				b.fail(err)
			}
			return
		}
		if predict(run, pts, ref{}) {
			rr.rec.add("predict.closed_ok", 1)
		}
	})
	b.calibrate(rr.rec)
	if err := b.firstErr(); err != nil {
		return err
	}
	// The reads leave every model as it was: check the sampled
	// predictions before the next round steers the campaigns on.
	if err := checkPredictions(b.rig.owner, samples); err != nil {
		return fmt.Errorf("%w: predictions: %v", errIncorrect, err)
	}
	return nil
}

// calibrate times the calibration work calReps times into the "cal"
// series of rec, between two phases, while the service is idle.
func (b *bench) calibrate(rec *recorder) {
	for i := 0; i < calReps; i++ {
		rec.get("cal").add(b.cal.measure(), false)
	}
}

// directPredict times one Manager.PredictCtx call, the serving work
// without HTTP and JSON.
func directPredict(mgr *serve.Manager, id string, pts [][]float64, s *series) error {
	c, err := mgr.Get(id)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := mgr.PredictCtx(context.Background(), c, pts); err != nil {
		s.fail()
		return fmt.Errorf("direct predict on %s: %w", id, err)
	}
	s.ok(time.Since(t0))
	return nil
}

// targets are the campaigns the reads go to: the parked ones when the
// workload has them, else each steering client's first campaign.
func (b *bench) targets() []*campaignRun {
	if len(b.parked) > 0 {
		return b.parked
	}
	var out []*campaignRun
	for _, s := range b.steer {
		out = append(out, s.runs[0])
	}
	return out
}

// runs lists every campaign of the set-up, parked first.
func (b *bench) runs() []*campaignRun {
	out := append([]*campaignRun(nil), b.parked...)
	for _, s := range b.steer {
		out = append(out, s.runs...)
	}
	return out
}

// check replays every campaign against the service's and returns
// final_rmse: the median RMSE over the grid of the final models of the
// first rmseCampaigns variance-reduction campaigns of client 0 (its
// even-numbered ones). Cost efficiency trades accuracy away from cheap
// experiments by design, so its whole-grid error is no quality signal.
// The served campaigns are replayed anyway; the replay runs any of them
// that the service did not.
func (b *bench) check() (float64, error) {
	workers := runtime.GOMAXPROCS(0)
	served, err := checkRuns(b.client(nil), b.p.g, b.runs(), workers)
	if err != nil {
		return 0, fmt.Errorf("%w: campaigns: %v", errIncorrect, err)
	}
	rmse := make([]float64, b.p.w.rmseCampaigns)
	err = parallel(len(rmse), workers, func(i int) error {
		k := 2 * i
		if runs := b.steer[0].runs; k < len(runs) && runs[k].Done {
			rmse[i] = served[runs[k]]
			return nil
		}
		r, err := finalRMSE(b.p.g, b.p.spec(domainSpec, 0, k))
		rmse[i] = r
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("final_rmse: %w", err)
	}
	return median(rmse), nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// setupMany sets up setupRepeats times, tearing each set-up down before
// the next, and keeps the last. It returns the set-up times in seconds,
// each stated at the reference speed: divided by the mean of the
// calibrations run just before and just after it over calRefMs.
func setupMany(p *plan, workdir string, tr *tracer, cal *calibrator, clients, conns int) (*bench, []float64, error) {
	var times []float64
	var b *bench
	calibrate := func() float64 {
		t := 0.0
		for i := 0; i < calReps; i++ {
			t += cal.measure()
		}
		return t / calReps
	}
	before := calibrate()
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.rig.close()
		}
		t0 := time.Now()
		nb, err := setup(p, filepath.Join(workdir, fmt.Sprintf("setup%d", i)), tr, clients, conns)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(t0).Seconds()
		after := calibrate()
		times = append(times, d*calRefMs*2/(before+after))
		before = after
		b = nb
	}
	b.cal = cal
	return b, times, nil
}

// errIncorrect marks a failed correctness check, as opposed to a run
// that could not complete.
var errIncorrect = errors.New("correctness gate failed")
