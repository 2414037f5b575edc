// Command campaignbench is the repository's benchmark: it runs one
// named workload against the in-process campaign service (serve, and
// ring for the replicated workload), checks the service's outputs, and
// prints every metric by name and unit. The last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced pass and the metrics are
// the per-layer ones. METRICS.md catalogs both.
//
// Usage, from the repository root:
//
//	bash campaignbench/run.sh --workload steer --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: steer, dashboard or replicated")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 16, "measured wall time of the run")
	trace := fs.Int("trace", 0, "1: untraced and traced passes, per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "campaignbench: need -workload steer|dashboard|replicated, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir, stdout)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// gridSeed generates the candidate grids: the simulated cluster's
// measurement noise for the study grid, the response noise for the
// synthetic one.
const gridSeed = 1

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// procs is the benchmark's GOMAXPROCS, the same on every host, so the
// figures do not change with the host's core count. It is above the two
// cores of the machine the benchmark was built on: at GOMAXPROCS 2, an
// observe on steer, answered while the refit it starts computes, read
// 0.31 ms at the reference speed in most runs but up to 0.51 ms when
// the host was contended; at 4 it read 0.32-0.36 ms.
const procs = 4

// concurrency pins GOMAXPROCS and returns how many steering clients and
// predict connections the run uses: one of each. The load then needs
// about one core, so on a shared two-core host it measures the program
// rather than the scheduler: with a client and a connection per core,
// any other tenant's work on the host slowed every phase of a run.
func concurrency() (clients, conns int) {
	runtime.GOMAXPROCS(procs)
	return 1, 1
}

// runWorkload sets up, measures and checks one workload, printing the
// report to out. A failed check returns errIncorrect with the result.
func runWorkload(w workload, seed int64, total time.Duration, traced bool, workdir string, out io.Writer) (*result, error) {
	// The grid is fixed, as the paper's study dataset is; the seed
	// drives the campaigns (seed experiments, strategy RNG) and the
	// predict traffic.
	p := &plan{w: w, seed: seed}
	if w.grid == "paper" {
		g, err := paperGrid(gridSeed)
		if err != nil {
			return nil, err
		}
		p.g = g
	} else {
		p.g = syntheticGrid(gridSeed, 40, 0.05)
	}
	clients, conns := concurrency()
	fmt.Fprintf(out, "campaignbench workload=%s seed=%d seconds=%g trace=%v clients=%d conns=%d\n%s: %s\n",
		w.name, seed, total.Seconds(), traced, clients, conns, w.name, w.why)
	fmt.Fprintf(out, "plan fingerprint %016x (%d candidates)\n", p.fingerprint(clients, conns), len(p.g.X))

	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	b, setups, err := setupMany(p, dir, tr, newCalibrator(), clients, conns)
	if err != nil {
		return nil, err
	}
	defer b.rig.close()

	// One untraced pass; or, traced, an untraced and a traced pass of
	// half the length each.
	t1 := time.Now()
	passLen := total
	if traced {
		passLen = total / 2
	}
	un, err := b.pass(passLen, false)
	var trd *passResult
	if traced && err == nil {
		tr.on.Store(true)
		trd, err = b.pass(passLen, true)
		tr.on.Store(false)
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		return nil, err
	}
	t2 := time.Now()
	rmse, cerr := b.check()
	if err == nil {
		err = cerr
	}
	fmt.Fprintf(out, "wall time: set-ups %.1fs, measured passes %.1fs, checks %.1fs\n",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	e2e := endToEnd(un, setups, rmse)
	if trd == nil {
		return report(out, e2e, err, un)
	}
	path := filepath.Join(workdir, "trace-"+w.name+".jsonl")
	if werr := tr.write(path); werr != nil {
		return nil, werr
	}
	fmt.Fprintf(out, "spans: %s\nuntraced pass, end to end:\n", path)
	for _, m := range e2e {
		fmt.Fprintf(out, "  %-34s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	return report(out, perLayer(un, trd, tr), err, un, trd)
}

// ungated metrics are printed but left out of the JSON result: the
// tails' run-to-run spread on a shared two-core machine can exceed any
// bound the benchmark may set, and the peak memory grows with the work
// a run gets done, so with the host's speed (METRICS.md).
var ungated = map[string]bool{"step_tail_ms": true, "observe_tail_ms": true, "predict_tail_ms": true, "peak_rss_mb": true}

// report prints the metrics and builds the JSON result, counting the
// requests of every pass; checkErr, when set, marks the result
// incorrect. The generator-lag warning looks at the first (untraced)
// pass.
func report(out io.Writer, metrics metricList, checkErr error, passes ...*passResult) (*result, error) {
	var attempted, failed int
	for _, p := range passes {
		a, f := p.rec.requests()
		attempted += a
		failed += f
	}
	r := &result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "requests: %d attempted, %d failed, error_rate %.6f\n", attempted, failed, ratio(float64(failed), float64(attempted)))
	if lag, p50 := passes[0].rec.get("lag").p50(), passes[0].rec.get("predict.open").p50(); lag*2 >= p50 {
		fmt.Fprintf(out, "WARNING: open-loop generator lag p50 %.3f ms is comparable to predict p50 %.3f ms; the open-loop figures are invalid\n", lag, p50)
	}
	for _, m := range metrics {
		fmt.Fprintf(out, "  %-34s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
		if !ungated[m.name] {
			r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Fprintf(out, "correctness gate: %s\n", map[bool]string{true: "passed", false: "FAILED"}[r.Correct])
	return r, checkErr
}
