package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// missMs is the latency charged to an operation that failed or was
// refused (HTTP 429, any 5xx, a transport error): the service's route
// deadline. A failure therefore counts as having missed every latency
// limit, and shedding load can never improve a tail percentile.
const missMs = 30000.0

// tailPercentiles are the candidates for a tail metric, highest first,
// in hundredths of a percent so the rank arithmetic stays integral.
var tailPercentiles = []int{9999, 9990, 9900, 9000, 5000}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	r = min(max(r, 1), len(sorted))
	return sorted[r-1]
}

// tailStat is a tail latency with the percentile it was read at and the
// number of samples ranked beyond that percentile.
type tailStat struct {
	Value  float64
	Pct    float64 // percentile, e.g. 99.9; 100 means the maximum
	Beyond int
	N      int
}

// tailRank applies the tail rule to a sample of n: the highest
// candidate percentile (in hundredths) that still has at least ten
// samples ranked beyond it, and its 1-based nearest rank. With fewer
// than twenty samples no percentile qualifies: it returns 10000 and n,
// the maximum.
func tailRank(n int) (pct, rank int) {
	for _, p := range tailPercentiles {
		r := (p*n + 9999) / 10000 // ceil(p·n)
		if n-r >= 10 {
			return p, r
		}
	}
	return 10000, n
}

// tail applies the tail rule to a sorted sample.
func tail(sorted []float64) tailStat {
	n := len(sorted)
	if n == 0 {
		return tailStat{}
	}
	p, r := tailRank(n)
	return tailStat{Value: sorted[r-1], Pct: float64(p) / 100, Beyond: n - r, N: n}
}

// series accumulates one kind of operation: latency samples in
// milliseconds (failures charged missMs) plus attempt and failure
// counts. Safe for concurrent use.
type series struct {
	mu        sync.Mutex
	ms        []float64
	attempted int
	failed    int
}

// ok records a successful operation that took d.
func (s *series) ok(d time.Duration) { s.add(float64(d)/float64(time.Millisecond), false) }

// fail records a failed or refused operation.
func (s *series) fail() { s.add(missMs, true) }

func (s *series) add(ms float64, failed bool) {
	s.mu.Lock()
	s.ms = append(s.ms, ms)
	s.attempted++
	if failed {
		s.failed++
	}
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *series) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// counts returns (attempted, failed).
func (s *series) counts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempted, s.failed
}

// p50 is the median of the samples (0 when empty).
func (s *series) p50() float64 { return quantile(s.sorted(), 0.5) }

// recorder holds every series and counter of one measured pass.
type recorder struct {
	mu     sync.Mutex
	m      map[string]*series
	counts map[string]int64
}

func newRecorder() *recorder { return &recorder{m: map[string]*series{}, counts: map[string]int64{}} }

// add adds n to the named counter.
func (r *recorder) add(name string, n int64) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// count reads the named counter.
func (r *recorder) count(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// merge adds every series and counter of o to r.
func (r *recorder) merge(o *recorder) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, c := range o.counts {
		r.add(name, c)
	}
	for name, s := range o.m {
		d := r.get(name)
		s.mu.Lock()
		d.mu.Lock()
		d.ms = append(d.ms, s.ms...)
		d.attempted += s.attempted
		d.failed += s.failed
		d.mu.Unlock()
		s.mu.Unlock()
	}
}

// get returns the named series, creating it on first use.
func (r *recorder) get(name string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.m[name]
	if !ok {
		s = &series{}
		r.m[name] = s
	}
	return s
}

// requests sums attempts and failures over the per-route client
// request series ("http.<route>"): the operations behind error_rate.
func (r *recorder) requests() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, s := range r.m {
		if len(name) > 5 && name[:5] == "http." {
			a, f := s.counts()
			attempted += a
			failed += f
		}
	}
	return attempted, failed
}
