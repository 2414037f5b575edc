package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// spanHeader carries the parent span and request id of a traced HTTP
// call ("<span>.<request>") to the wrapper on the receiving side.
const spanHeader = "X-Bench-Span"

// Layers a span can belong to. Each names the module whose call the
// span wraps, except the client's own roots (a step, an open-loop
// predict from its due time): their self time is time the client spent
// with no request in flight, which no layer accounts for.
const (
	layerWait     = "client.wait"
	layerClient   = "client"        // client round trip: transport, both HTTP stacks
	layerRouter   = "ring.router"   // the router's handler
	layerForward  = "ring.forward"  // router → owner node call
	layerServe    = "serve.http"    // the serving front's handler
	layerJournal  = "serve.journal" // local journal append (write + fsync)
	layerShip     = "ring.ship"     // owner → follower ship call
	layerFollower = "ring.follower" // the follower's ship handler
)

// traceLayers lists the layers in path order, for reports.
var traceLayers = []string{layerClient, layerRouter, layerForward, layerServe, layerJournal, layerShip, layerFollower}

// spanRec is one finished span. Times are nanoseconds since the tracer
// started.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// ref identifies a span as a parent: its id and its request id. The
// zero ref starts a new request.
type ref struct{ ID, Req int64 }

func (r ref) String() string { return strconv.FormatInt(r.ID, 10) + "." + strconv.FormatInt(r.Req, 10) }

func parseRef(s string) ref {
	a, b, ok := strings.Cut(s, ".")
	if !ok {
		return ref{}
	}
	id, err1 := strconv.ParseInt(a, 10, 64)
	req, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return ref{}
	}
	return ref{ID: id, Req: req}
}

type refKey struct{}

// tracer keeps spans in memory while switched on. It records only what
// the benchmark's own wrappers see: client calls, the HTTP fronts, the
// router's transport, the journal appender and the ship client. A nil
// or switched-off tracer records nothing and its wrappers pass through.
type tracer struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []spanRec

	// bound maps a campaign id to the serving-front span of its
	// in-flight observe or create. The journal append and the ship calls
	// run on the campaign's actor goroutine, out of reach of any
	// context; each campaign has one closed-loop client, so the id
	// identifies their parent.
	bound sync.Map

	journalAppends atomic.Int64
	journalBytes   atomic.Int64
	shipErrors     atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// span is an open span; a nil span (tracing off) ignores every call.
type span struct {
	t   *tracer
	rec spanRec
}

// start opens a span under parent, or returns nil when tracing is off.
func (t *tracer) start(layer, name string, parent ref) *span {
	return t.startAt(layer, name, parent, time.Now())
}

// startAt is start with an explicit start time (an open-loop request
// starts at its due time, before it is sent).
func (t *tracer) startAt(layer, name string, parent ref, at time.Time) *span {
	if !t.active() {
		return nil
	}
	id := t.ids.Add(1)
	req := parent.Req
	if parent.ID == 0 {
		req = id
	}
	return &span{t: t, rec: spanRec{ID: id, Parent: parent.ID, Req: req, Layer: layer, Name: name, Start: int64(at.Sub(t.t0))}}
}

func (s *span) ref() ref {
	if s == nil {
		return ref{}
	}
	return ref{ID: s.rec.ID, Req: s.rec.Req}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// write stores the finished spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeOf names the route of a request path and the campaign id in it.
// Routes the benchmark does not trace map to "".
func routeOf(method, path string) (route, id string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "campaigns" && method == http.MethodPost:
		return "create", ""
	case len(parts) == 2 && parts[0] == "campaigns" && method == http.MethodGet:
		return "status", parts[1]
	case len(parts) == 3 && parts[0] == "campaigns":
		switch parts[2] {
		case "suggest", "observe", "predict":
			return parts[2], parts[1]
		}
	case len(parts) == 3 && parts[0] == "internal":
		switch parts[1] {
		case "campaigns":
			return "create", parts[2] // the router's create, forwarded to the owner
		case "ship":
			return parts[1], parts[2]
		case "replica":
			if method == http.MethodPut { // a follower resync, not a cleanup
				return parts[1], parts[2]
			}
		}
	}
	return "", ""
}

// handler wraps an HTTP front: the serving front ("serve.http") or the
// router ("ring.router"). On a node, the follower side of shipping is
// reported as its own layer.
func (t *tracer) handler(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, id := routeOf(r.Method, r.URL.Path)
		if !t.active() || route == "" {
			next.ServeHTTP(w, r)
			return
		}
		l := layer
		if route == "ship" || route == "replica" {
			l = layerFollower
		}
		sp := t.start(l, l+"."+route, parseRef(r.Header.Get(spanHeader)))
		if l == layerServe && id != "" && (route == "observe" || route == "create") {
			t.bound.Store(id, sp.ref())
			defer t.bound.CompareAndDelete(id, sp.ref())
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), refKey{}, sp.ref())))
		sp.end()
	})
}

// transport wraps the RoundTripper of the router ("ring.forward") or of
// a node's ship client ("ring.ship"). The span's parent comes from the
// request context (the router's handler span) or, for ship calls made
// on a campaign's actor goroutine, from the campaign's bound span.
func (t *tracer) transport(layer string, base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.active() {
			return base.RoundTrip(req)
		}
		route, id := routeOf(req.Method, req.URL.Path)
		parent, _ := req.Context().Value(refKey{}).(ref)
		if parent.ID == 0 && id != "" {
			if b, ok := t.bound.Load(id); ok {
				parent = b.(ref)
			}
		}
		sp := t.start(layer, layer+"."+route, parent)
		out := req.Clone(req.Context())
		out.Header.Set(spanHeader, sp.ref().String())
		resp, err := base.RoundTrip(out)
		sp.end()
		if layer == layerShip && (err != nil || resp.StatusCode != http.StatusOK) {
			t.shipErrors.Add(1)
		}
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// store wraps a journal Store so every Appender it issues is timed.
func (t *tracer) store(inner serve.Store) serve.Store { return tracedStore{Store: inner, t: t} }

type tracedStore struct {
	serve.Store
	t *tracer
}

func (s tracedStore) Create(id string, spec serve.CampaignSpec) (serve.Appender, error) {
	a, err := s.Store.Create(id, spec)
	if err != nil {
		return nil, err
	}
	return &tracedAppender{Appender: a, t: s.t, id: id}, nil
}

func (s tracedStore) Load(id string) (*serve.JournalInfo, serve.Appender, error) {
	info, a, err := s.Store.Load(id)
	if err != nil {
		return nil, nil, err
	}
	return info, &tracedAppender{Appender: a, t: s.t, id: id}, nil
}

type tracedAppender struct {
	serve.Appender
	t  *tracer
	id string
}

func (a *tracedAppender) AppendObs(o serve.Observation, mv int, fp uint64) error {
	if !a.t.active() {
		return a.Appender.AppendObs(o, mv, fp)
	}
	parent, _ := a.t.bound.Load(a.id)
	p, _ := parent.(ref)
	sp := a.t.start(layerJournal, "serve.journal.append", p)
	err := a.Appender.AppendObs(o, mv, fp)
	sp.end()
	if line, lerr := serve.EncodeJournalObs(o, mv, fp); lerr == nil && err == nil {
		a.t.journalAppends.Add(1)
		a.t.journalBytes.Add(int64(len(line)))
	}
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []spanRec) map[int64]int64 {
	children := childIndex(spans)
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		for i, v := range iv {
			switch {
			case i == 0:
				curLo, curHi = v[0], v[1]
			case v[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			case v[1] > curHi:
				curHi = v[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

func childIndex(spans []spanRec) map[int64][]spanRec {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// traceView answers per-layer questions about one set of spans.
type traceView struct {
	spans    []spanRec
	children map[int64][]spanRec
	self     map[int64]int64
}

func newTraceView(spans []spanRec) *traceView {
	return &traceView{spans: spans, children: childIndex(spans), self: selfTimes(spans)}
}

// walk calls fn on s and every descendant.
func (v *traceView) walk(s spanRec, fn func(spanRec)) {
	fn(s)
	for _, c := range v.children[s.ID] {
		v.walk(c, fn)
	}
}

// named returns the spans with the given name.
func (v *traceView) named(name string) []spanRec {
	var out []spanRec
	for _, s := range v.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the durations (ms, sorted) of the spans
// whose name starts with prefix.
func (v *traceView) durs(prefix string) []float64 {
	var out []float64
	for _, s := range v.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, nsToMs(s.dur()))
		}
	}
	sort.Float64s(out)
	return out
}

// breakdown sums self time per layer over the subtree of every span
// named root. It returns, per layer, the sorted per-root sums (ms) and
// the sorted root durations.
func (v *traceView) breakdown(root string) (map[string][]float64, []float64) {
	perLayer := map[string][]float64{}
	var roots []float64
	for _, r := range v.named(root) {
		sums := map[string]int64{}
		v.walk(r, func(s spanRec) { sums[s.Layer] += v.self[s.ID] })
		for _, l := range traceLayers {
			perLayer[l] = append(perLayer[l], nsToMs(sums[l]))
		}
		roots = append(roots, nsToMs(r.dur()))
	}
	for _, xs := range perLayer {
		sort.Float64s(xs)
	}
	sort.Float64s(roots)
	return perLayer, roots
}

// minusDescendants returns, for every span whose name starts with
// prefix and that has descendants in layer, its duration minus their
// summed durations (ms, sorted).
func (v *traceView) minusDescendants(prefix, layer string) []float64 {
	var out []float64
	for _, r := range v.spans {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		var sub int64
		found := false
		for _, c := range v.children[r.ID] {
			v.walk(c, func(s spanRec) {
				if s.Layer == layer {
					sub += s.dur()
					found = true
				}
			})
		}
		if found {
			out = append(out, nsToMs(r.dur()-sub))
		}
	}
	sort.Float64s(out)
	return out
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
