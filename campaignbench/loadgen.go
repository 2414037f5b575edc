package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the open-loop generator; tests swap in a
// simulated one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { preciseSleep(d) }

// preciseSleep sleeps in the nanosleep system call. The runtime's
// timers can round a sub-millisecond sleep up to a whole millisecond,
// which would swamp the sub-millisecond latencies measured here.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		err := syscall.Nanosleep(&ts, &rem)
		if !errors.Is(err, syscall.EINTR) {
			return
		}
		ts = rem
	}
}

// openLoop issues n requests at a fixed rate from a fixed set of worker
// goroutines (one connection each). Request i is due at start + i/rate
// whether or not earlier requests have finished. Its latency runs from
// the due time, not from the send, so a stall that holds up later sends
// is charged to them. lag records how late each request was sent after
// its due time. send gets the request's index and due time and reports
// whether it succeeded. When stop returns true the generator sends
// nothing more.
func openLoop(clk clock, rate float64, n, workers int, send func(i int, due time.Time) bool, stop func() bool, lat, lag *series) {
	period := time.Duration(float64(time.Second) / rate)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop() {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if d := due.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
				}
				lag.ok(clk.Now().Sub(due))
				if send(i, due) {
					lat.ok(clk.Now().Sub(due))
				} else {
					lat.fail()
				}
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs op back to back on each of workers goroutines until
// the deadline passes or stop returns true, and returns the elapsed
// wall time. op receives its worker index.
func closedLoop(workers int, deadline time.Time, stop func() bool, op func(w int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && !stop() {
				op(w)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
