package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func randPoint(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = 3 * rng.NormFloat64()
	}
	return p
}

// allKernels returns a fresh instance of every kernel family, with the
// input dimension each test should use.
func allKernels() []struct {
	k   Kernel
	dim int
} {
	return []struct {
		k   Kernel
		dim int
	}{
		{NewRBF(1.3, 0.8), 3},
		{NewARD([]float64{0.5, 2.0, 1.1}, 1.5), 3},
		{NewMatern32(0.9, 1.2), 3},
		{NewMatern52(1.7, 0.6), 3},
		{NewRationalQuadratic(1.1, 0.9, 2.0), 3},
	}
}

// TestGradientsMatchFiniteDifferences is the load-bearing test: the LML
// optimizer relies on these analytic gradients being exact.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const h = 1e-6
	for _, tc := range allKernels() {
		k := tc.k
		for trial := 0; trial < 5; trial++ {
			x := randPoint(rng, tc.dim)
			y := randPoint(rng, tc.dim)
			nh := k.NumHyper()
			grad := make([]float64, nh)
			v := k.EvalGrad(x, y, grad)
			if !almostEq(v, k.Eval(x, y), 1e-13) {
				t.Fatalf("%s: EvalGrad value %g != Eval %g", k.Name(), v, k.Eval(x, y))
			}
			theta := k.Hyper()
			for p := 0; p < nh; p++ {
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
					t.Fatalf("%s: grad[%d] = %g, finite diff %g (x=%v y=%v)",
						k.Name(), p, grad[p], fd, x, y)
				}
			}
		}
	}
}

func TestKernelSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range allKernels() {
		for trial := 0; trial < 10; trial++ {
			x := randPoint(rng, tc.dim)
			y := randPoint(rng, tc.dim)
			if !almostEq(tc.k.Eval(x, y), tc.k.Eval(y, x), 1e-14) {
				t.Fatalf("%s not symmetric", tc.k.Name())
			}
		}
	}
}

// TestKernelMatrixPSD checks K + small jitter is positive definite for
// random input sets — the property GPR depends on.
func TestKernelMatrixPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range allKernels() {
		n := 12
		x := mat.New(n, tc.dim)
		for i := 0; i < n; i++ {
			copy(x.RawRow(i), randPoint(rng, tc.dim))
		}
		km := Matrix(tc.k, x)
		if !km.IsSymmetric(1e-12) {
			t.Fatalf("%s: Matrix not symmetric", tc.k.Name())
		}
		km.AddDiag(1e-8 * (1 + km.MaxAbs()))
		if _, err := mat.NewCholesky(km); err != nil {
			t.Fatalf("%s: kernel matrix not PSD: %v", tc.k.Name(), err)
		}
	}
}

func TestHyperRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range allKernels() {
		k := tc.k
		nh := k.NumHyper()
		theta := make([]float64, nh)
		for i := range theta {
			theta[i] = rng.NormFloat64()
		}
		k.SetHyper(theta)
		got := k.Hyper()
		for i := range theta {
			if got[i] != theta[i] {
				t.Fatalf("%s: Hyper round trip differs at %d", k.Name(), i)
			}
		}
		if len(k.Bounds()) != nh {
			t.Fatalf("%s: Bounds length %d != NumHyper %d", k.Name(), len(k.Bounds()), nh)
		}
		if len(k.HyperNames()) != nh {
			t.Fatalf("%s: HyperNames length %d != NumHyper %d", k.Name(), len(k.HyperNames()), nh)
		}
	}
}

// TestSetHyperMatchesFreshKernel: the kernels cache exp of their
// log-hyperparameters, so SetHyper must leave a kernel that evaluates
// exactly (==, not approximately) like one built at the same
// hyperparameters — the GP traces depend on it.
func TestSetHyperMatchesFreshKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		old, fresh Kernel
		dim        int
	}{
		{NewRBF(1.3, 0.8), NewRBF(0.4, 2.2), 3},
		{NewARD([]float64{0.5, 2.0, 1.1}, 1.5), NewARD([]float64{1.7, 0.3, 0.9}, 0.6), 3},
		{NewMatern32(0.9, 1.2), NewMatern32(2.1, 0.7), 3},
		{NewMatern52(1.7, 0.6), NewMatern52(0.5, 1.9), 3},
		{NewPeriodic(0.8, 1.2, 1.5), NewPeriodic(1.3, 0.5, 2.5), 2},
	}
	for _, tc := range cases {
		k := tc.old
		k.SetHyper(tc.fresh.Hyper())
		gk := make([]float64, k.NumHyper())
		gf := make([]float64, k.NumHyper())
		for trial := 0; trial < 20; trial++ {
			x, y := randPoint(rng, tc.dim), randPoint(rng, tc.dim)
			if a, b := k.Eval(x, y), tc.fresh.Eval(x, y); a != b {
				t.Fatalf("%s: Eval after SetHyper %v, fresh kernel %v", k.Name(), a, b)
			}
			a, b := k.EvalGrad(x, y, gk), tc.fresh.EvalGrad(x, y, gf)
			if a != b {
				t.Fatalf("%s: EvalGrad after SetHyper %v, fresh kernel %v", k.Name(), a, b)
			}
			for p := range gk {
				if gk[p] != gf[p] {
					t.Fatalf("%s: grad[%d] after SetHyper %v, fresh kernel %v", k.Name(), p, gk[p], gf[p])
				}
			}
			if dk, ok := k.(DistanceKernel); ok {
				d2 := sqDist(x, y)
				if a, b := dk.EvalSq(d2), tc.fresh.(DistanceKernel).EvalSq(d2); a != b {
					t.Fatalf("%s: EvalSq after SetHyper %v, fresh kernel %v", k.Name(), a, b)
				}
			}
		}
	}
}

func TestRBFKnownValues(t *testing.T) {
	k := NewRBF(1, 1)
	// Same point: σf² = 1.
	if got := k.Eval([]float64{0, 0}, []float64{0, 0}); !almostEq(got, 1, 1e-15) {
		t.Fatalf("k(x,x) = %g", got)
	}
	// Distance 1 with l=1: exp(-1/2).
	want := math.Exp(-0.5)
	if got := k.Eval([]float64{0}, []float64{1}); !almostEq(got, want, 1e-15) {
		t.Fatalf("k = %g, want %g", got, want)
	}
	if k.LengthScale() != 1 || k.Amplitude() != 1 {
		t.Fatal("accessors wrong")
	}
}

func TestRBFDecreasesWithDistance(t *testing.T) {
	k := NewRBF(2, 1.5)
	prev := math.Inf(1)
	for r := 0.0; r < 10; r += 0.5 {
		v := k.Eval([]float64{0}, []float64{r})
		if v > prev {
			t.Fatalf("RBF not monotone decreasing at r=%g", r)
		}
		prev = v
	}
}

func TestARDAnisotropy(t *testing.T) {
	// Tiny length scale in dim 0 → distance in dim 0 kills correlation
	// much faster than in dim 1.
	k := NewARD([]float64{0.1, 10}, 1)
	v0 := k.Eval([]float64{0, 0}, []float64{1, 0})
	v1 := k.Eval([]float64{0, 0}, []float64{0, 1})
	if v0 >= v1 {
		t.Fatalf("ARD anisotropy broken: v0=%g v1=%g", v0, v1)
	}
	ls := k.LengthScales()
	if !almostEq(ls[0], 0.1, 1e-12) || !almostEq(ls[1], 10, 1e-12) {
		t.Fatalf("LengthScales = %v", ls)
	}
}

func TestMaternLimitsAtZeroDistance(t *testing.T) {
	x := []float64{1, 2}
	for _, k := range []Kernel{NewMatern32(1.5, 2), NewMatern52(1.5, 2)} {
		if got := k.Eval(x, x); !almostEq(got, 4, 1e-14) {
			t.Fatalf("%s k(x,x) = %g, want σf²=4", k.Name(), got)
		}
	}
}

func TestMaternSmoothnessOrdering(t *testing.T) {
	// At moderate distance, for equal (l, σf), rougher kernels decay
	// differently; check all stay in (0, σf²) and RBF ≥ Matern52 ≥
	// Matern32 does NOT generally hold, but all must be positive and
	// bounded by variance.
	x, y := []float64{0}, []float64{0.7}
	for _, k := range []Kernel{NewRBF(1, 1), NewMatern32(1, 1), NewMatern52(1, 1)} {
		v := k.Eval(x, y)
		if v <= 0 || v >= 1 {
			t.Fatalf("%s: k=%g out of (0,1)", k.Name(), v)
		}
	}
}

func TestRQApproachesRBFForLargeAlpha(t *testing.T) {
	rbf := NewRBF(1.5, 1)
	rq := NewRationalQuadratic(1.5, 1, 1e6)
	x, y := []float64{0, 0}, []float64{1, 0.5}
	if !almostEq(rbf.Eval(x, y), rq.Eval(x, y), 1e-5) {
		t.Fatalf("RQ(α→∞) %g != RBF %g", rq.Eval(x, y), rbf.Eval(x, y))
	}
}

func TestMatrixAndCross(t *testing.T) {
	k := NewRBF(1, 1)
	x := mat.NewFromRows([][]float64{{0}, {1}, {2}})
	km := Matrix(k, x)
	if km.Rows() != 3 || km.Cols() != 3 {
		t.Fatal("Matrix shape")
	}
	for i := 0; i < 3; i++ {
		if !almostEq(km.At(i, i), 1, 1e-15) {
			t.Fatalf("diag %g", km.At(i, i))
		}
	}
	star := mat.NewFromRows([][]float64{{0.5}})
	cm := CrossMatrix(k, star, x)
	if cm.Rows() != 1 || cm.Cols() != 3 {
		t.Fatal("CrossMatrix shape")
	}
	if !almostEq(cm.At(0, 0), k.Eval([]float64{0.5}, []float64{0}), 1e-15) {
		t.Fatal("CrossMatrix value")
	}
}

func TestMatrixGradConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	k := NewRBF(1.2, 0.7)
	x := mat.New(6, 2)
	for i := 0; i < 6; i++ {
		copy(x.RawRow(i), randPoint(rng, 2))
	}
	km, grads := MatrixGrad(k, x)
	km2 := Matrix(k, x)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEq(km.At(i, j), km2.At(i, j), 1e-14) {
				t.Fatal("MatrixGrad K differs from Matrix")
			}
		}
	}
	if len(grads) != 2 {
		t.Fatalf("grads len %d", len(grads))
	}
	// Spot-check one gradient entry against EvalGrad.
	g := make([]float64, 2)
	k.EvalGrad(x.RawRow(0), x.RawRow(3), g)
	if !almostEq(grads[0].At(0, 3), g[0], 1e-14) || !almostEq(grads[1].At(0, 3), g[1], 1e-14) {
		t.Fatal("gradient matrices inconsistent with EvalGrad")
	}
	// Symmetry of gradient matrices.
	for p := range grads {
		if !grads[p].IsSymmetric(1e-13) {
			t.Fatalf("grad matrix %d not symmetric", p)
		}
	}
}

func TestVariances(t *testing.T) {
	k := NewRBF(1, 2)
	x := mat.NewFromRows([][]float64{{0}, {5}})
	v := Variances(k, x)
	for _, vv := range v {
		if !almostEq(vv, 4, 1e-14) {
			t.Fatalf("Variance = %g, want 4", vv)
		}
	}
}

func TestBoundsClamp(t *testing.T) {
	b := Bounds{Lo: -1, Hi: 1}
	if b.Clamp(-5) != -1 || b.Clamp(5) != 1 || b.Clamp(0.5) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// Property: kernel value at identical points bounds the value anywhere
// (for stationary kernels).
func TestStationaryBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kernels := []Kernel{NewRBF(1, 1), NewMatern32(1, 1), NewMatern52(1, 1),
			NewRationalQuadratic(1, 1, 1)}
		k := kernels[rng.Intn(len(kernels))]
		x := randPoint(rng, 2)
		y := randPoint(rng, 2)
		return k.Eval(x, y) <= k.Eval(x, x)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewRBF(0, 1) },
		func() { NewRBF(1, -1) },
		func() { NewMatern32(-1, 1) },
		func() { NewMatern52(1, 0) },
		func() { NewRationalQuadratic(1, 1, 0) },
		func() { NewARD(nil, 1) },
		func() { NewARD([]float64{0}, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func BenchmarkRBFMatrix200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	k := NewRBF(1, 1)
	x := mat.New(200, 2)
	for i := 0; i < 200; i++ {
		copy(x.RawRow(i), randPoint(rng, 2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Matrix(k, x)
	}
}
