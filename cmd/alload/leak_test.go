package main

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// recordLeakTestJournals produces one completed client-campaign journal
// in dir for the surrogate to train on, without touching the dataset
// registry.
func recordLeakTestJournals(t *testing.T, dir string) {
	t.Helper()
	mgr := serve.NewManager(serve.Config{CheckpointDir: dir})
	grid := make([][]float64, 12)
	for i := range grid {
		grid[i] = []float64{3 * float64(i) / 11}
	}
	c, err := mgr.Create(serve.CampaignSpec{
		Name: "leak-recording", Source: "client", Candidates: grid,
		Seeds: []int{0, 11}, Strategy: "variance-reduction",
		Iterations: 8, Restarts: 1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("recording create: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("recording campaign stuck")
		}
		sug, err := c.Suggest()
		if err != nil {
			st, serr := c.Status(false)
			if serr == nil && (st.State == serve.StateDone || st.State == serve.StateFailed) {
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		x := sug.X[0]
		if err := c.Observe(sug.Seq, math.Sin(2*x)+0.5*x, 1+x); err != nil {
			t.Fatalf("recording observe: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("recording shutdown: %v", err)
	}
}

// leakedLoadGoroutines scans for alload's own replay goroutines — the
// campaign drivers and the background worker pool — plus any campaign
// goroutines of the in-test server.
func leakedLoadGoroutines() []string {
	targets := []string{
		"main.(*loader).",
		"main.replay.func",
		"serve.(*Campaign).actor",
		"serve.(*Campaign).run",
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		for _, target := range targets {
			if strings.Contains(g, target) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// TestReplayDriverPoolNoLeakOnServerDeath kills the target server in
// the middle of a replay and requires (a) the replay to abort with an
// error instead of hanging, and (b) every driver and background worker
// goroutine to unwind — the mirror of the aleval and serve leak
// checkers for the load-generator side.
func TestReplayDriverPoolNoLeakOnServerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay in -short mode")
	}
	journals := t.TempDir()
	recordLeakTestJournals(t, journals)

	mgr := serve.NewManager(serve.Config{})
	handler := serve.NewServerWith(mgr, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{}
	var observes atomic.Int64
	var dieOnce sync.Once
	srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Kill the server abruptly once the replay is mid-campaign: a
		// few observes have been acknowledged and drivers are in flight.
		if strings.HasSuffix(r.URL.Path, "/observe") && observes.Add(1) == 3 {
			dieOnce.Do(func() { go srv.Close() })
		}
		handler.ServeHTTP(w, r)
	})
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("server manager shutdown: %v", err)
		}
	}()

	cfg := config{
		server:       "http://" + ln.Addr().String(),
		journals:     journals,
		surKind:      "knn",
		requests:     60,
		concurrency:  4,
		campaigns:    2,
		iterations:   10,
		predictBatch: 4,
		seed:         9,
		timeout:      60 * time.Second,
	}
	var stdout, stderrB bytes.Buffer
	start := time.Now()
	if err := replay(cfg, &stdout, &stderrB); err == nil {
		t.Fatalf("replay succeeded against a server that died mid-run\nstdout:\n%s", stdout.String())
	}
	if elapsed := time.Since(start); elapsed > 45*time.Second {
		t.Fatalf("replay took %v to abort after the server died — drivers are not failing fast", elapsed)
	}

	// Drain the in-test server's own campaigns before scanning, so the
	// scan sees only what the replay itself leaked. (The deferred
	// Shutdown call stays valid — it is idempotent.)
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := mgr.Shutdown(sctx); err != nil {
		t.Fatalf("server manager shutdown: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := leakedLoadGoroutines()
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replay goroutine(s) leaked after the aborted run:\n%s",
				len(stacks), strings.Join(stacks, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
