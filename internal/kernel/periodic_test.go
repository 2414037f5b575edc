package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestPeriodicPeriodicity(t *testing.T) {
	k := NewPeriodic(1, 1, 2) // period 2
	x := []float64{0.3}
	for _, shift := range []float64{2, 4, 6} {
		a := k.Eval(x, []float64{x[0]})
		b := k.Eval(x, []float64{x[0] + shift})
		if !almostEq(a, b, 1e-12) {
			t.Fatalf("k not periodic at shift %g: %g vs %g", shift, a, b)
		}
	}
	// Half-period is the point of least similarity.
	mid := k.Eval(x, []float64{x[0] + 1})
	if mid >= k.Eval(x, x) {
		t.Fatal("half-period similarity should be below same-point")
	}
}

func TestPeriodicGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := NewPeriodic(0.8, 1.2, 1.5)
	const h = 1e-6
	for trial := 0; trial < 10; trial++ {
		x := []float64{3 * rng.NormFloat64()}
		y := []float64{3 * rng.NormFloat64()}
		grad := make([]float64, 3)
		v := k.EvalGrad(x, y, grad)
		if !almostEq(v, k.Eval(x, y), 1e-13) {
			t.Fatal("EvalGrad value mismatch")
		}
		theta := k.Hyper()
		for p := 0; p < 3; p++ {
			tp := append([]float64(nil), theta...)
			tp[p] += h
			k.SetHyper(tp)
			fPlus := k.Eval(x, y)
			tp[p] -= 2 * h
			k.SetHyper(tp)
			fMinus := k.Eval(x, y)
			k.SetHyper(theta)
			fd := (fPlus - fMinus) / (2 * h)
			if !almostEq(grad[p], fd, 1e-5) && math.Abs(grad[p]-fd) > 1e-7 {
				t.Fatalf("grad[%d] = %g, fd %g", p, grad[p], fd)
			}
		}
	}
}

func TestPeriodicPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := NewPeriodic(1, 1, 1)
	x := mat.New(10, 1)
	for i := 0; i < 10; i++ {
		x.Set(i, 0, 3*rng.NormFloat64())
	}
	km := Matrix(k, x)
	km.AddDiag(1e-8)
	if _, err := mat.NewCholesky(km); err != nil {
		t.Fatalf("Periodic kernel matrix not PSD: %v", err)
	}
}

func TestPeriodicValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPeriodic(1, 1, 0)
}
