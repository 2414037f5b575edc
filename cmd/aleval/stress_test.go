package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// campaignGoroutines snapshots all goroutine stacks and returns those
// still inside campaign actors or stepping goroutines — the goroutines
// a campaign owns. After every in-process server has shut
// down, none may survive.
func campaignGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "serve.(*Campaign).actor") ||
			strings.Contains(g, "serve.(*Campaign).run") {
			out = append(out, g)
		}
	}
	return out
}

// TestQuickConcurrentServers runs two full `aleval -quick` evaluations
// at once, each against its own in-process server sharing one process —
// the shape a parallel CI matrix produces. Both must succeed, both must
// emit the same byte-identical report their shared seed promises (the
// runs may not bleed state into each other through process-global
// registries or metrics), and no campaign goroutine may outlive the
// servers' shutdown.
func TestQuickConcurrentServers(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent end-to-end eval skipped in -short mode")
	}
	if stacks := campaignGoroutines(); len(stacks) > 0 {
		t.Skipf("campaign goroutines already running before the test: %d", len(stacks))
	}

	args := []string{
		"-quick",
		"-strategies", "random,cost-efficiency",
		"-datasets", "synthetic-1d",
		"-seed", "19",
	}

	const runs = 2
	var (
		wg      sync.WaitGroup
		reports [runs]string
		errs    [runs]error
	)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				errs[i] = fmt.Errorf("run %d exited %d: %s", i, code, errb.String())
				return
			}
			reports[i] = out.String()
		}(i)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if reports[0] != reports[1] {
		t.Errorf("concurrent identical invocations diverged:\n-- first --\n%s\n-- second --\n%s",
			reports[0], reports[1])
	}
	if !strings.Contains(reports[0], "cost-efficiency") {
		t.Errorf("report missing strategy row:\n%s", reports[0])
	}

	// Actor exits are asynchronous (shutdown returns before mailboxes
	// drain), so poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := campaignGoroutines()
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d campaign goroutine(s) leaked past shutdown:\n%s",
				len(stacks), strings.Join(stacks, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
