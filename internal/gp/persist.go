package gp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// modelFile is the JSON-serializable form of a fitted GP: training data,
// kernel identity + hyperparameters, noise, and normalization constants.
// The factorization is rebuilt on load, so files stay small and remain
// valid across numerical-kernel changes.
type modelFile struct {
	KernelName  string      `json:"kernel"`
	KernelHyper []float64   `json:"kernel_hyper"`
	LogSN       float64     `json:"log_sn"`
	YMean       float64     `json:"y_mean"`
	YStd        float64     `json:"y_std"`
	Dims        int         `json:"dims"`
	X           [][]float64 `json:"x"`
	Y           []float64   `json:"y"` // model-space targets
	Jitter      float64     `json:"jitter"`
}

// kernelRegistry rebuilds kernels by name with placeholder parameters;
// SetHyper restores the fitted values. ARD needs the dimension count.
func kernelByName(name string, dims int) (kernel.Kernel, error) {
	switch name {
	case "RBF":
		return kernel.NewRBF(1, 1), nil
	case "ARD":
		ls := make([]float64, dims)
		for i := range ls {
			ls[i] = 1
		}
		return kernel.NewARD(ls, 1), nil
	case "Matern32":
		return kernel.NewMatern32(1, 1), nil
	case "Matern52":
		return kernel.NewMatern52(1, 1), nil
	case "RationalQuadratic":
		return kernel.NewRationalQuadratic(1, 1, 1), nil
	case "Periodic":
		return kernel.NewPeriodic(1, 1, 1), nil
	default:
		return nil, fmt.Errorf("gp: cannot reconstruct kernel %q (only the built-in kernel families are persistable)", name)
	}
}

// Save writes the fitted model as JSON. Only the kernel families
// kernelByName rebuilds are supported (their identity survives the Name
// round trip); any other kernel returns an error.
func (g *GP) Save(w io.Writer) error {
	if _, err := kernelByName(g.kern.Name(), g.x.Cols()); err != nil {
		return err
	}
	mf := modelFile{
		KernelName:  g.kern.Name(),
		KernelHyper: g.kern.Hyper(),
		LogSN:       g.logSN,
		YMean:       g.yMean,
		YStd:        g.yStd,
		Dims:        g.x.Cols(),
		Y:           append([]float64(nil), g.y...),
		Jitter:      g.cfg.Jitter,
	}
	mf.X = make([][]float64, g.x.Rows())
	for i := range mf.X {
		mf.X[i] = append([]float64(nil), g.x.RawRow(i)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(mf)
}

// Load reconstructs a fitted GP written by Save, refactorizing the
// covariance. The loaded model predicts identically to the saved one.
func Load(r io.Reader) (*GP, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("gp: decoding model: %w", err)
	}
	if len(mf.X) == 0 || len(mf.X) != len(mf.Y) {
		return nil, fmt.Errorf("gp: model file has %d inputs and %d targets", len(mf.X), len(mf.Y))
	}
	if mf.Dims <= 0 {
		return nil, fmt.Errorf("gp: model file dimension mismatch")
	}
	for i, row := range mf.X {
		if len(row) != mf.Dims {
			return nil, fmt.Errorf("gp: model file row %d has %d coordinates, want %d",
				i, len(row), mf.Dims)
		}
	}
	if mf.YStd <= 0 || math.IsNaN(mf.YStd) {
		return nil, fmt.Errorf("gp: model file has invalid y_std %g", mf.YStd)
	}
	k, err := kernelByName(mf.KernelName, mf.Dims)
	if err != nil {
		return nil, err
	}
	if len(mf.KernelHyper) != k.NumHyper() {
		return nil, fmt.Errorf("gp: model file has %d hyperparameters for kernel %s (want %d)",
			len(mf.KernelHyper), mf.KernelName, k.NumHyper())
	}
	k.SetHyper(mf.KernelHyper)

	cfg := Config{Kernel: k, Jitter: mf.Jitter}
	g := &GP{
		cfg:   cfg.withDefaults(),
		kern:  k,
		x:     mat.NewFromRows(mf.X),
		y:     append(mat.Vec(nil), mf.Y...),
		yMean: mf.YMean,
		yStd:  mf.YStd,
		logSN: mf.LogSN,
	}
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}
