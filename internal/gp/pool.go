package gp

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
)

// Candidate-pool cache metrics (see OBSERVABILITY.md): rows brought up
// to date in O(n) from the parent model's cached row, against rows
// recomputed from scratch in O(n²).
var (
	poolRowsExtended = obs.C("gp.pool.rows.extended")
	poolRowsBuilt    = obs.C("gp.pool.rows.built")
)

// PoolPosterior caches, for every row of a fixed candidate matrix, the
// parts of the posterior (Eqs. 5–6) that survive an incremental model
// update: k* (the row's covariances with the training points),
// v = L⁻¹k*, Σv² and the prior variance k**. When the model is a child
// of the one a row was computed for — UpdateWithPoint's bordered path,
// whose factor keeps the parent's as its prefix — the row grows by one
// kernel evaluation and one forward-substitution row, O(n), instead of
// the O(n²) triangular solve PredictBatch performs. Any other model (a
// fresh fit, a refit, the degenerate-pivot fallback, a second child of
// the same parent) rebuilds the row.
//
// Every prediction is bit-identical to PredictBatch on the same row:
// each quantity is computed with the same operations in the same order
// (Σv² accumulates in mat.Dot's order, and mat.TriPacked's
// ForwardSubstLast is ForwardSubstInto's last step).
//
// The cache uses 2·m·n floats for m candidates and n training points,
// in storage that doubles when it runs out (so at most 4·m·n). Predict
// calls may run concurrently only on disjoint rows.
type PoolPosterior struct {
	x    *mat.Dense
	rows []poolRow
}

// poolRow is one candidate's cached posterior state.
type poolRow struct {
	model uint64  // GP.id the row is current for; 0 = never computed
	kss   float64 // k(x, x)
	ks    mat.Vec // k(x, x_j) for each training point
	v     mat.Vec // L⁻¹ks
	vv    float64 // Σv², accumulated as mat.Dot(v, v) does
}

// NewPoolPosterior returns an empty cache over the rows of x, which the
// cache aliases and which must not change afterwards.
func NewPoolPosterior(x *mat.Dense) *PoolPosterior {
	return &PoolPosterior{x: x, rows: make([]poolRow, x.Rows())}
}

// Predict writes g's posterior at candidate rows[i] into dst[i],
// bringing each row's cache up to date with g; it equals
// g.PredictBatch over those rows bit for bit. Calls with disjoint rows
// may run concurrently on the same g.
func (p *PoolPosterior) Predict(dst []Prediction, g *GP, rows []int) {
	if p.x.Cols() != g.x.Cols() {
		panic(fmt.Sprintf("gp: PoolPosterior dim %d, model trained on %d", p.x.Cols(), g.x.Cols()))
	}
	n := g.x.Rows()
	// Rows whose storage cannot take n points move into one new slab,
	// with room for 2n each, so a pass allocates once however many rows
	// outgrow their storage.
	grow := 0
	for _, r := range rows {
		if c := &p.rows[r]; c.model != g.id && cap(c.ks) < n {
			grow++
		}
	}
	var slab []float64
	if grow > 0 {
		slab = make([]float64, grow*4*n)
	}
	var extended, built int64
	for i, r := range rows {
		c := &p.rows[r]
		xi := p.x.RawRow(r)
		if c.model != g.id && cap(c.ks) < n {
			c.ks = append(slab[:0:2*n], c.ks...)
			c.v = append(slab[2*n:2*n:4*n], c.v...)
			slab = slab[4*n:]
		}
		switch {
		case c.model == g.id:
		case g.parent != 0 && c.model == g.parent:
			k := g.kern.Eval(xi, g.x.RawRow(n-1))
			vk := g.chol.ForwardSubstLast(c.v, k)
			c.ks = append(c.ks, k)
			c.v = append(c.v, vk)
			c.vv += vk * vk
			c.model = g.id
			extended++
		default:
			c.ks = c.ks[:n]
			for j := range c.ks {
				c.ks[j] = g.kern.Eval(xi, g.x.RawRow(j))
			}
			c.v = c.v[:n]
			g.chol.ForwardSubstInto(c.v, c.ks)
			c.vv = mat.Dot(c.v, c.v)
			c.kss = g.kern.Eval(xi, xi)
			c.model = g.id
			built++
		}
		variance := c.kss - c.vv
		if variance < 0 {
			variance = 0
		}
		dst[i] = Prediction{
			Mean: g.yMean + g.yStd*mat.Dot(c.ks, g.alpha),
			SD:   g.yStd * math.Sqrt(variance),
		}
	}
	poolRowsExtended.Add(extended)
	poolRowsBuilt.Add(built)
}
