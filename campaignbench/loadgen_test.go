package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a simulated time source: Sleep advances it by the
// requested duration plus a fixed oversleep, and a request's service
// time advances it explicitly.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d + c.oversleep) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func msSamples(s *series) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms...)
}

// When the service is slower than the schedule, every request is timed
// from its due time: the queueing behind earlier requests is charged to
// the later ones, as is the lateness of the send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var lat, lag series
	// 100 requests/s (due every 10ms), each served in 30ms, one worker.
	openLoop(clk, 100, 5, 1, func(i int, due time.Time) bool {
		if want := time.Unix(0, 0).Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
		clk.advance(30 * time.Millisecond)
		return true
	}, func() bool { return false }, &lat, &lag)

	for i, got := range msSamples(&lat) {
		// Sent at 30i ms, done at 30(i+1) ms, due at 10i ms.
		if want := float64(30 + 20*i); got != want {
			t.Errorf("request %d latency %v ms, want %v", i, got, want)
		}
	}
	for i, got := range msSamples(&lag) {
		if want := float64(20 * i); got != want {
			t.Errorf("request %d lag %v ms, want %v", i, got, want)
		}
	}
}

// When the service keeps up, the lag is the generator's own lateness
// waking for each request, and it is part of the measured latency.
func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 500 * time.Microsecond}
	var lat, lag series
	openLoop(clk, 100, 4, 1, func(i int, due time.Time) bool {
		clk.advance(time.Millisecond)
		return i != 2 // request 2 fails
	}, func() bool { return false }, &lat, &lag)

	lags := msSamples(&lag)
	if len(lags) != 4 {
		t.Fatalf("%d lag samples, want 4", len(lags))
	}
	for i, got := range lags[1:] {
		if got != 0.5 {
			t.Errorf("request %d lag %v ms, want 0.5", i+1, got)
		}
	}
	lats := msSamples(&lat)
	if lats[1] != 1.5 || lats[3] != 1.5 {
		t.Errorf("latencies %v: want 1.5 ms (lag plus service) for the successful requests", lats)
	}
	if a, f := lat.counts(); a != 4 || f != 1 || lats[2] != missMs {
		t.Errorf("attempted %d failed %d, failed latency %v: want 4, 1, %v", a, f, lats[2], missMs)
	}
}

func TestOpenLoopStops(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var lat, lag series
	sent := 0
	openLoop(clk, 100, 50, 1, func(int, time.Time) bool { sent++; return true }, func() bool { return sent >= 3 }, &lat, &lag)
	if sent != 3 {
		t.Fatalf("sent %d requests after stop, want 3", sent)
	}
}
