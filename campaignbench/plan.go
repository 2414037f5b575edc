package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// grid is a finite candidate set with its ground truth: the response
// and cost an experiment at each point returns. The benchmark is the
// oracle of every client-sourced campaign; the service only ever sees
// the candidates and the observations.
type grid struct {
	X      [][]float64
	Y      []float64
	Cost   []float64
	row    map[string]int
	lo, hi []float64 // bounding box of X
}

func newGrid(x [][]float64, y, cost []float64) *grid {
	g := &grid{X: x, Y: y, Cost: cost, row: make(map[string]int, len(x))}
	g.lo = append([]float64(nil), x[0]...)
	g.hi = append([]float64(nil), x[0]...)
	for i := len(x) - 1; i >= 0; i-- {
		g.row[pointKey(x[i])] = i // first matching row wins on duplicates
		for d, v := range x[i] {
			g.lo[d] = math.Min(g.lo[d], v)
			g.hi[d] = math.Max(g.hi[d], v)
		}
	}
	return g
}

func pointKey(x []float64) string {
	b := make([]byte, 0, 17*len(x))
	for _, v := range x {
		b = strconv.AppendUint(b, math.Float64bits(v), 16)
		b = append(b, ',')
	}
	return string(b)
}

// truth answers an experiment at x, which must be a grid point.
func (g *grid) truth(x []float64) (y, cost float64, err error) {
	i, ok := g.row[pointKey(x)]
	if !ok {
		return 0, 0, fmt.Errorf("suggested point %v is not on the grid", x)
	}
	return g.Y[i], g.Cost[i], nil
}

// paperGrid is the paper's §V-B study grid: the Performance dataset
// restricted to operator poisson1 at NP = 32, over (log10 problem
// size, CPU frequency), with log10 runtime as the response and the
// job's runtime as its cost. The seed drives the simulated cluster's
// measurement noise.
func paperGrid(seed int64) (*grid, error) {
	d, err := repro.GeneratePerformanceDataset(seed)
	if err != nil {
		return nil, fmt.Errorf("generate performance dataset: %w", err)
	}
	sub, err := repro.StudySubset2D(d)
	if err != nil {
		return nil, fmt.Errorf("study subset: %w", err)
	}
	n := sub.Len()
	x := make([][]float64, n)
	y := make([]float64, n)
	cost := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = sub.Row(i)
		y[i] = sub.RespAt(dataset.RespRuntime, i)
		cost[i] = sub.CostAt(i)
	}
	return newGrid(x, y, cost), nil
}

// syntheticGrid is the service's built-in 1-D benchmark shape,
// y = sin(2x) + x/2 plus noise on [0, 4] with cost 10^y, generated here
// so the service receives it as a client-sourced candidate grid.
func syntheticGrid(seed int64, n int, noise float64) *grid {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	cost := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 4 * float64(i) / float64(n-1)
		x[i] = []float64{v}
		y[i] = math.Sin(2*v) + 0.5*v + noise*rng.NormFloat64()
		cost[i] = math.Pow(10, y[i])
	}
	return newGrid(x, y, cost)
}

// mix derives an independent 63-bit seed from a base seed and a path of
// integers (splitmix64 finalizer over each step).
func mix(seed int64, path ...int) int64 {
	z := uint64(seed)
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z>>1) | 1 // positive and never 0 (0 means "default" to a spec)
}

// Seed-derivation domains, so the inputs of different roles never share
// a random stream.
const (
	domainSpec = iota + 1
	domainParked
	domainOpen
	domainClosed
)

// strategies alternate between the two selection rules the paper
// compares: the k-th campaign of client j steers with
// strategies[(j+k)%2].
var strategies = []string{"variance-reduction", "cost-efficiency"}

// plan generates every input of one run from the workload and the seed.
type plan struct {
	w    workload
	seed int64
	g    *grid
}

// spec returns the k-th campaign that steering client j runs (domain
// domainSpec) or parked campaign j (domainParked, k = 0).
func (p *plan) spec(domain, j, k int) serve.CampaignSpec {
	rng := rand.New(rand.NewSource(mix(p.seed, domain, j, k)))
	perm := rng.Perm(len(p.g.X))
	return serve.CampaignSpec{
		Name:            fmt.Sprintf("%s-%d-%d-%d", p.w.name, domain, j, k),
		Source:          "client",
		Candidates:      p.g.X,
		Seeds:           append([]int(nil), perm[:p.w.seedExperiments]...),
		Strategy:        strategies[(j+k)%len(strategies)],
		Iterations:      p.w.iterations,
		ReoptimizeEvery: p.w.reoptimizeEvery,
		Seed:            mix(p.seed, domain, j, k, 1),
	}
}

// batch returns predict request i of a stream: a target campaign index
// below targets and batchSize points. Each point is, with probability
// onGridShare, a grid point (a likely cache hit) and otherwise a
// uniform point in the grid's bounding box (always a miss).
func (p *plan) batch(domain, stream, i, targets int) (int, [][]float64) {
	rng := rand.New(rand.NewSource(mix(p.seed, domain, stream, i)))
	target := rng.Intn(targets)
	pts := make([][]float64, batchSize)
	for k := range pts {
		if rng.Float64() < onGridShare {
			pts[k] = p.g.X[rng.Intn(len(p.g.X))]
			continue
		}
		pt := make([]float64, len(p.g.lo))
		for d := range pt {
			pt[d] = p.g.lo[d] + rng.Float64()*(p.g.hi[d]-p.g.lo[d])
		}
		pts[k] = pt
	}
	return target, pts
}

const (
	batchSize   = 8
	onGridShare = 0.6
)

// fingerprint hashes the run's inputs: the grid, the first campaigns of
// every client and parked slot, and the first predict batches of every
// stream. Same workload and seed, same fingerprint.
func (p *plan) fingerprint(clients, conns int) uint64 {
	h := fnv.New64a()
	put := func(v any) {
		b, _ := json.Marshal(v) // plain data; cannot fail
		h.Write(b)
	}
	fmt.Fprintf(h, "%+v", p.w)
	for i := range p.g.X {
		put(p.g.X[i])
		binary.Write(h, binary.LittleEndian, [2]float64{p.g.Y[i], p.g.Cost[i]})
	}
	for j := 0; j < clients; j++ {
		for k := 0; k < 4; k++ {
			put(p.spec(domainSpec, j, k))
		}
	}
	for k := 0; k < p.w.parked; k++ {
		put(p.spec(domainParked, k, 0))
	}
	for s := 0; s < conns; s++ {
		for i := 0; i < 16; i++ {
			for _, d := range []int{domainOpen, domainClosed} {
				t, pts := p.batch(d, s, i, 4)
				put(t)
				put(pts)
			}
		}
	}
	return h.Sum64()
}
