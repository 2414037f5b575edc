package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// obsDelta holds the model-layer totals the program already emits
// through obs, as the difference across one write phase.
type obsDelta struct {
	hyperoptS, lmlEvals, cholesky, updateS, scoreS, candEvals float64
}

func readObs() obsDelta {
	return obsDelta{
		hyperoptS: obs.T("gp.hyperopt.duration").Sum(),
		lmlEvals:  float64(obs.C("gp.lml.evals").Value()),
		cholesky:  float64(obs.C("mat.cholesky.count").Value()),
		updateS:   obs.T("al.model.update.duration").Sum(),
		scoreS:    obs.T("al.score.duration").Sum(),
		candEvals: float64(obs.C("al.candidates.evaluated").Value()),
	}
}

func (a obsDelta) plus(b obsDelta) obsDelta {
	return obsDelta{
		a.hyperoptS + b.hyperoptS, a.lmlEvals + b.lmlEvals, a.cholesky + b.cholesky,
		a.updateS + b.updateS, a.scoreS + b.scoreS, a.candEvals + b.candEvals,
	}
}

func (a obsDelta) minus(b obsDelta) obsDelta {
	return obsDelta{
		a.hyperoptS - b.hyperoptS, a.lmlEvals - b.lmlEvals, a.cholesky - b.cholesky,
		a.updateS - b.updateS, a.scoreS - b.scoreS, a.candEvals - b.candEvals,
	}
}

// procDelta is the Go runtime's and the OS's view of the process over a
// pass: bytes allocated, GC cycles, CPU time.
type procDelta struct {
	allocBytes float64
	gcCycles   float64
	cpu        time.Duration
}

func readProc() procDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procDelta{allocBytes: float64(ms.TotalAlloc), gcCycles: float64(ms.NumGC), cpu: cpu}
}

func (a procDelta) minus(b procDelta) procDelta {
	return procDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.cpu - b.cpu}
}

// residentMB is the Go runtime's resident memory: everything it has
// mapped minus what it has returned to the operating system. Reading it
// does not stop the world.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakSampler records the peak of residentMB, sampled every 10ms,
// until stop is called.
type peakSampler struct {
	done chan struct{}
	peak chan float64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, residentMB())
			case <-p.done:
				p.peak <- max(peak, residentMB())
				return
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the peak.
func (p *peakSampler) stop() float64 {
	close(p.done)
	return <-p.peak
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type metricList []metric

func (m *metricList) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	*m = append(*m, metric{name, v, unit, note})
}

// addLatency adds a latency sample's median and its tail (by the tail
// rule) under the two names.
func (m *metricList) addLatency(p50Name, tailName string, sorted []float64) {
	m.add(p50Name, quantile(sorted, 0.5), "ms", fmt.Sprintf("n=%d", len(sorted)))
	t := tail(sorted)
	m.add(tailName, t.Value, "ms", fmt.Sprintf("p%g, n=%d, %d beyond", t.Pct, t.N, t.Beyond))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// okCount is the number of successful samples of a series.
func okCount(s *series) float64 {
	a, f := s.counts()
	return float64(a - f)
}

// endToEnd assembles the metrics a user of the service sees, from an
// untraced pass, stated at the reference speed: each round's latencies
// are divided, and its phase times too, by that round's mean
// calibration time over calRefMs. Only the faster half of the rounds,
// ranked by their calibration time alone, count: when the host is at
// its most contended, short requests wait out whole time slices of
// other tenants, which slows them by more than the calibration shows.
// Each figure is then taken over the rounds kept: rates are counts over
// the summed (scaled) time of their phase, latencies percentiles of
// every (scaled) sample. setups are already scaled (setupMany); memory
// is the median of every round's peak.
func endToEnd(res *passResult, setups []float64, rmse float64) metricList {
	var m metricList
	m.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, at the reference speed", len(setups)))
	type scaledRound struct {
		r    roundResult
		slow float64
	}
	var rounds []scaledRound
	var peaks []float64
	for _, r := range res.rounds {
		rounds = append(rounds, scaledRound{r, mean(r.rec.get("cal").sorted()) / calRefMs})
		peaks = append(peaks, r.peakMB)
	}
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].slow < rounds[j].slow })
	rounds = rounds[:(len(rounds)+1)/2]
	var steps, closed, writeS, closedS, rawWriteS, rawClosedS float64
	scaled := map[string][]float64{}
	for _, sr := range rounds {
		r, slow := sr.r, sr.slow
		steps += okCount(r.rec.get("step"))
		closed += float64(r.rec.count("predict.closed_ok"))
		rawWriteS += r.writeDur.Seconds()
		rawClosedS += r.closedDur.Seconds()
		writeS += ratio(r.writeDur.Seconds(), slow)
		closedS += ratio(r.closedDur.Seconds(), slow)
		for _, name := range []string{"step", "http.observe", "predict.open"} {
			for _, v := range r.rec.get(name).sorted() {
				scaled[name] = append(scaled[name], ratio(v, slow))
			}
		}
	}
	var speed string
	if len(rounds) > 0 {
		speed = fmt.Sprintf("%d of %d rounds kept, at %.3f-%.3f× the reference time", len(rounds), len(res.rounds), rounds[0].slow, rounds[len(rounds)-1].slow)
	}
	m.add("steps_per_s", ratio(steps, writeS), "1/s", fmt.Sprintf("%.0f steps in %.1f s, %.4g/s as measured; %s", steps, rawWriteS, ratio(steps, rawWriteS), speed))
	for _, l := range []struct{ key, series string }{
		{"step", "step"}, {"observe", "http.observe"}, {"predict", "predict.open"},
	} {
		v := scaled[l.series]
		sort.Float64s(v)
		m.addLatency(l.key+"_p50_ms", l.key+"_tail_ms", v)
	}
	m.add("predict_rps", ratio(closed, closedS), "1/s", fmt.Sprintf("%.0f requests in %.1f s, %.4g/s as measured", closed, rawClosedS, ratio(closed, rawClosedS)))
	m.add("final_rmse", rmse, "resp", "grid ground truth, response units")
	m.add("peak_rss_mb", median(peaks), "MB", fmt.Sprintf("median of %d rounds' peaks", len(peaks)))
	return m
}

// perLayer assembles the per-layer metrics from a traced pass (tr and
// its spans) and the untraced pass before it (un).
func perLayer(un, tr *passResult, t *tracer) metricList {
	var m metricList
	steps := okCount(tr.rec.get("step"))
	d := tr.model
	m.add("gp.hyperopt_ms_per_step", ratio(d.hyperoptS*1000, steps), "ms", "")
	m.add("gp.lml_evals_per_step", ratio(d.lmlEvals, steps), "count", "")
	m.add("mat.cholesky_per_step", ratio(d.cholesky, steps), "count", "")
	m.add("al.model_update_ms_per_step", ratio(d.updateS*1000, steps), "ms", "")
	m.add("al.score_ms_per_step", ratio(d.scoreS*1000, steps), "ms", "")
	m.add("al.cand_evals_per_step", ratio(d.candEvals, steps), "count", "")

	v := newTraceView(t.snapshot())
	for _, route := range []string{"suggest", "observe", "predict", "status"} {
		h := v.durs(layerServe + "." + route)
		p := "serve.http." + route
		m.add(p+".count", float64(len(h)), "count", "")
		m.addLatency(p+".handler_p50_ms", p+".handler_tail_ms", h)
		m.add(p+".transport_p50_ms", quantile(v.minusDescendants("client."+route, layerServe), 0.5), "ms", "round trip minus handler")
	}
	m.add("serve.predict.call_p50_ms", tr.rec.get("direct").p50(), "ms", "Manager.PredictCtx, no HTTP")
	m.add("serve.predict.cache_hit_ratio", ratio(float64(tr.rec.count("predict.cache_hits")), float64(tr.rec.count("predict.points"))), "ratio", "")
	sug, _ := tr.rec.get("http.suggest").counts()
	m.add("serve.suggest.useful_ratio", ratio(float64(tr.rec.count("suggest.ready")), float64(sug)), "ratio", "200s of all suggest polls")

	m.addLatency("serve.journal.append_p50_ms", "serve.journal.append_tail_ms", v.durs(layerJournal+"."))
	appends := float64(t.journalAppends.Load())
	m.add("serve.journal.bytes_per_append", ratio(float64(t.journalBytes.Load()), appends), "B", "")
	m.add("ring.router.forward_p50_ms", quantile(v.durs(layerForward+"."), 0.5), "ms", "")
	m.add("ring.router.overhead_p50_ms", quantile(v.minusDescendants("client.", layerForward), 0.5), "ms", "round trip minus forward")
	ships := v.durs(layerShip + ".")
	m.addLatency("ring.ship.rtt_p50_ms", "ring.ship.rtt_tail_ms", ships)
	m.add("ring.ship.per_append", ratio(float64(len(ships)), appends), "count", "")
	m.add("ring.ship.errors", float64(t.shipErrors.Load()), "count", "")

	ops, _ := un.rec.requests()
	m.add("go.alloc_mb_per_op", ratio(un.proc.allocBytes/(1<<20), float64(ops)), "MB", "untraced pass")
	m.add("go.gc_cycles", un.proc.gcCycles, "count", "untraced pass")
	m.add("go.cpu_ms_per_op", ratio(float64(un.proc.cpu)/1e6, float64(ops)), "ms", "untraced pass")
	m.add("loadgen.lag_tail_ms", tail(un.rec.get("lag").sorted()).Value, "ms", "untraced pass")

	// Self time per layer under each kind of root, the rest of the
	// root's median that no layer's median covers, and what tracing
	// added to that median.
	roots := []struct{ key, span, series string }{
		{"step", "step", "step"},
		{"observe", "client.observe", "http.observe"},
		{"predict", "predict", "predict.open"},
	}
	for _, r := range roots {
		layers, durs := v.breakdown(r.span)
		rest := quantile(durs, 0.5)
		for _, l := range traceLayers {
			p50 := quantile(layers[l], 0.5)
			rest -= p50
			m.add("trace."+r.key+"."+l+".self_p50_ms", p50, "ms", "")
		}
		m.add("trace."+r.key+".unaccounted_p50_ms", rest, "ms", fmt.Sprintf("of the traced p50 %.3f ms over %d roots", quantile(durs, 0.5), len(durs)))
		m.add("trace."+r.key+".overhead_ms", tr.rec.get(r.series).p50()-un.rec.get(r.series).p50(), "ms", "traced p50 minus untraced p50")
	}
	return m
}
