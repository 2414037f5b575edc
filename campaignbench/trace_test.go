package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Req: 1, Layer: layerClient, Name: "client.observe", Start: 0, End: 100},
		// Overlapping children cover [10, 50] once; the last one is
		// clipped to the parent's end.
		{ID: 2, Parent: 1, Req: 1, Layer: layerServe, Name: "serve.http.observe", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Layer: layerServe, Name: "serve.http.observe", Start: 20, End: 50},
		{ID: 4, Parent: 1, Req: 1, Layer: layerServe, Name: "serve.http.observe", Start: 90, End: 120},
		{ID: 5, Parent: 2, Req: 1, Layer: layerJournal, Name: "serve.journal.append", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

func TestBreakdownSumsSelfTimePerLayer(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []spanRec{
		{ID: 1, Req: 1, Layer: layerWait, Name: "step", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Req: 1, Layer: layerClient, Name: "client.observe", Start: 0, End: 4 * ms},
		{ID: 3, Parent: 2, Req: 1, Layer: layerServe, Name: "serve.http.observe", Start: 1 * ms, End: 3 * ms},
		{ID: 4, Parent: 3, Req: 1, Layer: layerJournal, Name: "serve.journal.append", Start: 2 * ms, End: 3 * ms},
		{ID: 5, Parent: 1, Req: 1, Layer: layerClient, Name: "client.suggest", Start: 8 * ms, End: 9 * ms},
	}
	v := newTraceView(spans)
	layers, roots := v.breakdown("step")
	if len(roots) != 1 || roots[0] != 10 {
		t.Fatalf("roots %v, want one of 10 ms", roots)
	}
	want := map[string]float64{layerClient: 2 + 1, layerServe: 1, layerJournal: 1, layerShip: 0}
	for l, w := range want {
		if got := layers[l]; len(got) != 1 || got[0] != w {
			t.Errorf("layer %s self %v ms, want %v", l, got, w)
		}
	}
	// Round trip minus handler time, per client call that reached one.
	if got := v.minusDescendants("client.observe", layerServe); len(got) != 1 || got[0] != 2 {
		t.Errorf("observe transport %v ms, want 2", got)
	}
}

// The wrappers link a span on the far side of an HTTP hop to the
// client's span through the span header.
func TestHandlerWrapperLinksAcrossHTTP(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	srv := httptest.NewServer(tr.handler(layerServe, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})))
	defer srv.Close()
	c := &client{hc: srv.Client(), base: srv.URL, tr: tr}
	root := tr.start(layerWait, "step", ref{})
	if _, err := c.call("suggest", http.MethodGet, "/campaigns/c1/suggest", nil, nil, root.ref()); err != nil {
		t.Fatal(err)
	}
	root.end()
	byName := map[string]spanRec{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
	}
	step, cl, h := byName["step"], byName["client.suggest"], byName["serve.http.suggest"]
	if cl.Parent != step.ID || h.Parent != cl.ID || h.Req != step.ID || cl.Req != step.ID {
		t.Fatalf("spans not linked: step %+v client %+v handler %+v", step, cl, h)
	}
	tr.on.Store(false)
	if _, err := c.call("suggest", http.MethodGet, "/campaigns/c1/suggest", nil, nil, ref{}); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.snapshot()); n != 3 {
		t.Fatalf("%d spans after tracing was switched off, want 3", n)
	}
}
