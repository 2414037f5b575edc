package kernel

import (
	"math"
	"testing"
)

// fuzzKernels returns one fresh instance of every kernel family, all
// over 2-D inputs.
func fuzzKernels() []Kernel {
	return []Kernel{
		NewRBF(1, 1),
		NewARD([]float64{1, 1}, 1),
		NewMatern32(1, 1),
		NewMatern52(1, 1),
		NewRationalQuadratic(1, 1, 1),
		NewPeriodic(1, 1, 1),
	}
}

// sanitizeInput maps an arbitrary fuzz float into a finite, moderately
// sized coordinate. Non-finite inputs fold to 0.
func sanitizeInput(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	const lim = 1e6
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// FuzzKernelParams drives every kernel family with adversarial
// hyperparameters (clamped into each kernel's declared bounds — the same
// clamp the LML optimizer enforces) and adversarial finite inputs, and
// asserts the PSD-kernel sanity properties: no panic, finite values, no
// NaN, symmetry k(x,y) = k(y,x), nonnegative self-covariance, and finite
// gradients from EvalGrad.
func FuzzKernelParams(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(-11.5, 11.5, 0.0, 1.0, -2.0, 3.0, 4.0)
	f.Add(11.5, -11.5, 11.5, 1e6, -1e6, 1e-12, 0.0)
	f.Add(math.Inf(1), math.NaN(), -300.0, 0.5, 0.5, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, h1, h2, h3, x1, x2, y1, y2 float64) {
		raw := []float64{h1, h2, h3, h1 - h2, h2 + h3, h3 * 0.5}
		x := []float64{sanitizeInput(x1), sanitizeInput(x2)}
		y := []float64{sanitizeInput(y1), sanitizeInput(y2)}
		for _, k := range fuzzKernels() {
			bounds := k.Bounds()
			theta := make([]float64, k.NumHyper())
			for i := range theta {
				v := raw[i%len(raw)]
				if math.IsNaN(v) {
					v = 0
				}
				theta[i] = bounds[i].Clamp(v)
			}
			k.SetHyper(theta)

			kxy := k.Eval(x, y)
			kyx := k.Eval(y, x)
			kxx := k.Eval(x, x)
			if math.IsNaN(kxy) || math.IsInf(kxy, 0) {
				t.Fatalf("%s(θ=%v): k(x,y) = %g for x=%v y=%v", k.Name(), theta, kxy, x, y)
			}
			if kxy != kyx {
				t.Fatalf("%s(θ=%v): asymmetric k(x,y)=%g k(y,x)=%g", k.Name(), theta, kxy, kyx)
			}
			if math.IsNaN(kxx) || math.IsInf(kxx, 0) || kxx < 0 {
				t.Fatalf("%s(θ=%v): invalid self-covariance k(x,x) = %g", k.Name(), theta, kxx)
			}

			grad := make([]float64, k.NumHyper())
			v := k.EvalGrad(x, y, grad)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s(θ=%v): EvalGrad value = %g", k.Name(), theta, v)
			}
			for i, g := range grad {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("%s(θ=%v): gradient[%d] = %g", k.Name(), theta, i, g)
				}
			}

			// Hyper round trip: SetHyper(Hyper()) must be stable.
			got := k.Hyper()
			for i := range got {
				if got[i] != theta[i] {
					t.Fatalf("%s: hyper round trip changed θ[%d]: %g → %g", k.Name(), i, theta[i], got[i])
				}
			}
		}
	})
}
