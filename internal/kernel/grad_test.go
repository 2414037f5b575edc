package kernel

import (
	"math"
	"testing"
)

// TestGradGridFiniteDifferences sweeps every covariance family across a
// lengthscale/scale grid — including the extremes the LML optimizer
// visits when a fit goes wrong — and checks each analytic
// log-hyperparameter gradient against a central finite difference at
// h = 1e-6. Unlike the random-point check in kernel_test.go, the point
// table deliberately includes coincident and nearly-coincident inputs
// (where Matérn-family gradients hinge on |r| terms) and the family
// table includes every constructor the package exports.
func TestGradGridFiniteDifferences(t *testing.T) {
	families := []struct {
		name string
		make func(l float64) Kernel
	}{
		{"rbf", func(l float64) Kernel { return NewRBF(l, 0.9) }},
		{"ard", func(l float64) Kernel { return NewARD([]float64{l, 2 * l}, 1.1) }},
		{"matern32", func(l float64) Kernel { return NewMatern32(l, 1.2) }},
		{"matern52", func(l float64) Kernel { return NewMatern52(l, 0.7) }},
		{"rq", func(l float64) Kernel { return NewRationalQuadratic(l, 0.9, 1.7) }},
		{"periodic", func(l float64) Kernel { return NewPeriodic(l, 1.3, 2.1) }},
	}
	lengthscales := []float64{0.05, 0.3, 1, 3, 20}
	pairs := [][2][]float64{
		{{0.7, -1.2}, {0.7, -1.2}},        // coincident: the diagonal case
		{{0.7, -1.2}, {0.7 + 1e-4, -1.2}}, // nearly coincident
		{{0, 0}, {0.5, -0.3}},
		{{-2, 1.5}, {2, -1.5}}, // far apart (k ≈ 0 at small lengthscales)
		{{1, 1}, {1, -1}},
	}
	const h = 1e-6

	for _, fam := range families {
		for _, l := range lengthscales {
			k := fam.make(l)
			nh := k.NumHyper()
			if nh != len(k.Hyper()) || nh != len(k.HyperNames()) || nh != len(k.Bounds()) {
				t.Fatalf("%s(l=%g): NumHyper %d disagrees with Hyper/HyperNames/Bounds lengths", fam.name, l, nh)
			}
			for pi, pair := range pairs {
				x, y := pair[0], pair[1]
				grad := make([]float64, nh)
				v := k.EvalGrad(x, y, grad)
				if ev := k.Eval(x, y); !almostEq(v, ev, 1e-13) && math.Abs(v-ev) > 1e-300 {
					t.Fatalf("%s(l=%g) pair %d: EvalGrad value %g != Eval %g", fam.name, l, pi, v, ev)
				}
				theta := k.Hyper()
				for p := 0; p < nh; p++ {
					fd := centralDiff(k, theta, p, x, y, h)
					if !gradClose(grad[p], fd) {
						t.Errorf("%s(l=%g) pair %d, hyper %s: analytic %.12g, central diff %.12g",
							fam.name, l, pi, k.HyperNames()[p], grad[p], fd)
					}
				}
				k.SetHyper(theta)
			}
		}
	}
}

// centralDiff perturbs log-hyperparameter p by ±h and evaluates the
// symmetric difference quotient.
func centralDiff(k Kernel, theta []float64, p int, x, y []float64, h float64) float64 {
	tp := append([]float64(nil), theta...)
	tp[p] = theta[p] + h
	k.SetHyper(tp)
	fPlus := k.Eval(x, y)
	tp[p] = theta[p] - h
	k.SetHyper(tp)
	fMinus := k.Eval(x, y)
	k.SetHyper(theta)
	return (fPlus - fMinus) / (2 * h)
}

// gradClose allows the O(h²) truncation plus cancellation error of a
// central difference: 2e-5 relative, 5e-8 absolute floor (both sides of
// a vanished gradient — far pairs under tiny lengthscales — are ~0).
func gradClose(analytic, fd float64) bool {
	if math.IsNaN(analytic) || math.IsNaN(fd) {
		return false
	}
	d := math.Abs(analytic - fd)
	if d <= 5e-8 {
		return true
	}
	return d <= 2e-5*math.Max(math.Abs(analytic), math.Abs(fd))
}

// TestGradGridRepresentativeValues spot-checks a closed form the
// finite-difference sweep cannot distinguish from an off-by-constant
// error: the RBF diagonal gradient.
func TestGradGridRepresentativeValues(t *testing.T) {
	// RBF: k(x,x) = sf², ∂k/∂log sf = 2 sf², ∂k/∂log l = 0.
	sf := 0.8
	k := NewRBF(1.4, sf)
	grad := make([]float64, k.NumHyper())
	v := k.EvalGrad([]float64{1, 2}, []float64{1, 2}, grad)
	if !almostEq(v, sf*sf, 1e-14) {
		t.Errorf("rbf diagonal value %g, want sf² = %g", v, sf*sf)
	}
	names := k.HyperNames()
	for p, name := range names {
		var want float64
		if name == "log_sf" {
			want = 2 * sf * sf
		}
		if !almostEq(grad[p], want, 1e-12) && math.Abs(grad[p]-want) > 1e-12 {
			t.Errorf("rbf diagonal grad %s = %g, want %g", name, grad[p], want)
		}
	}
}
