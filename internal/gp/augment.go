package gp

import (
	"fmt"

	"repro/internal/mat"
)

// TrainY returns the training targets in original (unnormalized) units.
func (g *GP) TrainY() []float64 {
	out := make([]float64, len(g.y))
	for i, v := range g.y {
		out[i] = g.yMean + g.yStd*v
	}
	return out
}

// Augmented returns a new GP conditioned on the training data plus one
// additional observation (x, y), keeping the current hyperparameters and
// normalization constants and refactorizing from scratch (O(n³)). It is
// the reference implementation that UpdateWithPoint (the O(n²) bordered-update
// fast path) is tested against; both support fantasy updates such as the
// kriging-believer batch selection in package al.
func (g *GP) Augmented(x []float64, y float64) (*GP, error) {
	if len(x) != g.x.Cols() {
		return nil, fmt.Errorf("gp: Augmented dim %d, model trained on %d", len(x), g.x.Cols())
	}
	n := g.x.Rows()
	nx := mat.New(n+1, g.x.Cols())
	for i := 0; i < n; i++ {
		copy(nx.RawRow(i), g.x.RawRow(i))
	}
	copy(nx.RawRow(n), x)
	ny := append(g.y.Clone(), (y-g.yMean)/g.yStd)

	out := &GP{
		cfg:   g.cfg,
		kern:  g.kern,
		x:     nx,
		y:     ny,
		yMean: g.yMean,
		yStd:  g.yStd,
		logSN: g.logSN,
	}
	if err := out.factorize(); err != nil {
		return nil, err
	}
	return out, nil
}
