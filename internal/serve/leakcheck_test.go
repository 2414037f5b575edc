package serve

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakTargets are the goroutines this package owns: every campaign's
// actor, and the goroutine running its current step (a client step,
// the resume replay, or a dataset campaign's measuring loop). After the
// manager shuts down (or the campaign is deleted) none may survive.
var leakTargets = []string{
	"serve.(*Campaign).actor",
	"serve.(*Campaign).run",
}

// leakedServeGoroutines snapshots all goroutine stacks and returns the
// ones still running campaign actors or steps.
func leakedServeGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		for _, target := range leakTargets {
			if strings.Contains(g, target) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// settleServeGoroutines polls until exactly want campaign goroutines
// run or timeout passes, and returns the last snapshot with whether it
// settled. Goroutine exits are asynchronous (close() returns before the
// actor drains its mailbox; a step exits right after its publish), so a
// single read just after a state change may still see them.
func settleServeGoroutines(want int, timeout time.Duration) ([]string, bool) {
	deadline := time.Now().Add(timeout)
	for {
		stacks := leakedServeGoroutines()
		if len(stacks) == want {
			return stacks, true
		}
		if time.Now().After(deadline) {
			return stacks, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkLeaked fails the test when campaign goroutines outlive their
// shutdown. Tests in this package run sequentially, so a global scan is
// safe.
func checkLeaked(t *testing.T) {
	t.Helper()
	if stacks, ok := settleServeGoroutines(0, 5*time.Second); !ok {
		t.Errorf("%d campaign goroutine(s) leaked past shutdown:\n%s",
			len(stacks), strings.Join(stacks, "\n\n"))
	}
}
