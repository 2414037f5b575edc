package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// ranks returns 1..n as a sorted sample, so a quantile's value is its
// rank.
func ranks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 5, pct: 100, value: 5, beyond: 0},      // too few samples: the maximum
		{n: 19, pct: 100, value: 19, beyond: 0},    // still too few for p50
		{n: 20, pct: 50, value: 10, beyond: 10},    // p50 has exactly ten beyond
		{n: 99, pct: 50, value: 50, beyond: 49},    // p90 would leave only nine
		{n: 100, pct: 90, value: 90, beyond: 10},   // p90 qualifies
		{n: 999, pct: 90, value: 900, beyond: 99},  // p99 would leave nine
		{n: 1000, pct: 99, value: 990, beyond: 10}, // p99 qualifies
		{n: 10000, pct: 99.9, value: 9990, beyond: 10},
		{n: 100000, pct: 99.99, value: 99990, beyond: 10},
	}
	for _, c := range cases {
		got := tail(ranks(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: tail = %+v, want p%g value %g with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
	}
	if got := tail(nil); got != (tailStat{}) {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestFailedStatus(t *testing.T) {
	cases := []struct {
		route string
		code  int
		fail  bool
	}{
		{"predict", http.StatusOK, false},
		{"create", http.StatusCreated, false},
		{"suggest", http.StatusConflict, false}, // "not yet": the poll's normal answer
		{"observe", http.StatusConflict, true},
		{"predict", http.StatusTooManyRequests, true},
		{"predict", http.StatusServiceUnavailable, true},
		{"observe", http.StatusInternalServerError, true},
		{"status", http.StatusNotFound, true},
	}
	for _, c := range cases {
		if got := failedStatus(c.route, c.code); got != c.fail {
			t.Errorf("failedStatus(%s, %d) = %v, want %v", c.route, c.code, got, c.fail)
		}
	}
}

// A refused request is a failed operation charged the miss latency, so
// shedding load raises the tail instead of lowering it.
func TestShedRequestsCountAsFailedAndMissed(t *testing.T) {
	shed := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"model_version":1,"means":[0],"sds":[1]}`))
	}))
	rec := newRecorder()
	c := &client{hc: srv.Client(), base: srv.URL, rec: rec}
	for i := 0; i < 30; i++ {
		shed = i == 29
		var resp serve.PredictResponse
		c.call("predict", http.MethodPost, "/campaigns/c1/predict", serve.PredictRequest{Points: [][]float64{{0}}}, &resp, ref{})
	}
	srv.Close()
	// A transport error (the server is gone) is a failure too.
	c.call("predict", http.MethodPost, "/campaigns/c1/predict", serve.PredictRequest{Points: [][]float64{{0}}}, nil, ref{})

	s := rec.get("http.predict")
	if a, f := s.counts(); a != 31 || f != 2 {
		t.Fatalf("attempted %d failed %d, want 31 and 2", a, f)
	}
	if a, f := rec.requests(); a != 31 || f != 2 {
		t.Fatalf("requests: attempted %d failed %d, want 31 and 2", a, f)
	}
	sorted := s.sorted()
	if max := sorted[len(sorted)-1]; max != missMs {
		t.Fatalf("slowest sample %v ms, want the miss latency %v", max, missMs)
	}
	if tl := tail(sorted); tl.Pct != 50 {
		t.Fatalf("tail of 31 samples read at p%g, want p50", tl.Pct)
	}
}

// A step whose observe had to be retried after a 503 is charged as
// missed, even though the retry succeeded quickly.
func TestStepWithFailedRequestIsMissed(t *testing.T) {
	observes := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/campaigns/c1/observe":
			observes++
			if observes == 1 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"accepted":1}`))
		case "/campaigns/c1/suggest":
			w.Write([]byte(`{"seq":2,"x":[1]}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	rec := newRecorder()
	g := newGrid([][]float64{{0}, {1}}, []float64{0.5, 1.5}, []float64{1, 2})
	s := &steerer{c: &client{hc: srv.Client(), base: srv.URL, rec: rec}, g: g}
	run := &campaignRun{ID: "c1", Spec: serve.CampaignSpec{Seeds: []int{0}, Iterations: 5}, Sugs: []serve.Suggestion{{Seq: 1, X: []float64{0}}}}
	start := time.Now()
	if err := s.step(run); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("step took too long")
	}
	if a, f := rec.get("step").counts(); a != 1 || f != 1 {
		t.Fatalf("step attempted %d failed %d, want 1 and 1", a, f)
	}
	if got := rec.get("step").sorted(); got[0] != missMs {
		t.Fatalf("step latency %v, want the miss latency", got)
	}
	if a, f := rec.requests(); a != 3 || f != 1 {
		t.Fatalf("requests attempted %d failed %d, want 3 (two observes, one suggest) and 1", a, f)
	}
	if run.Acked != 1 || len(run.Sugs) != 2 {
		t.Fatalf("run after step: acked %d, %d suggestions", run.Acked, len(run.Sugs))
	}
}

// The end-to-end figures keep the faster half of the rounds, ranked by
// calibration time, and state them at the reference speed: rates are
// counts over the summed scaled phase time, latencies percentiles of
// all the scaled samples.
func TestEndToEndScalesFasterRounds(t *testing.T) {
	res := &passResult{rec: newRecorder()}
	for i, n := range []int{50, 500, 5000, 500} {
		slow := []float64{3, 2, 2, 4}[i]
		rec := newRecorder()
		for _, v := range ranks(n) {
			rec.get("step").ok(time.Duration(v * float64(time.Millisecond)))
		}
		rec.add("predict.closed_ok", int64(n))
		rec.get("cal").add(calRefMs*(slow-0.5), false)
		rec.get("cal").add(calRefMs*(slow+0.5), false)
		res.rounds = append(res.rounds, roundResult{rec: rec, writeDur: time.Second, closedDur: time.Second})
		res.rec.merge(rec)
	}
	got := map[string]float64{}
	for _, m := range endToEnd(res, []float64{1}, 0.5) {
		got[m.name] = m.value
	}
	// Kept: the rounds of 500 and 5000 samples, both at twice the
	// reference time, so 5500 steps in 2 s taking 1 s at the reference
	// speed. Of the 5500 samples, 500+v are at most v ms for v in
	// 501..5000: the median (rank 2750) is 2250 ms and, p99.9 leaving
	// only 5 beyond, the tail is p99 (rank 5445): 4945 ms; both halved.
	want := map[string]float64{"steps_per_s": 5500, "predict_rps": 5500, "step_p50_ms": 1125, "step_tail_ms": 2472.5, "setup_s": 1}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// The suggest poll sleeps through most of the last wait, then polls
// finely up to twice it, then backs off geometrically.
func TestPollDelay(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct{ waited, expect, want time.Duration }{
		{0, 0, 50 * time.Microsecond},
		{2 * ms, 0, 250 * time.Microsecond},
		{ms, 10 * ms, 8 * ms},
		{9 * ms, 10 * ms, 500 * time.Microsecond},
		{19 * ms, 10 * ms, 500 * time.Microsecond},
		{40 * ms, 10 * ms, 5 * ms},
	} {
		if got := pollDelay(c.waited, c.expect); got != c.want {
			t.Errorf("pollDelay(%v, %v) = %v, want %v", c.waited, c.expect, got, c.want)
		}
	}
}
