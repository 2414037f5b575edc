package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		rec := MulT(l, l) // L·Lᵀ
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-9) {
					t.Fatalf("n=%d: L·Lᵀ[%d,%d]=%g want %g", n, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("upper entry L[%d,%d]=%g nonzero", i, j, l.At(i, j))
				}
			}
		}
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 25)
	xTrue := make(Vec, 25)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 12)
	bx := randomDense(rng, 12, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(bx)
	rec := Mul(a, x)
	matricesEqual(t, rec, bx, 1e-8)
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: log det is the sum of logs.
	d := New(4, 4)
	vals := []float64{2, 3, 0.5, 7}
	want := 0.0
	for i, v := range vals {
		d.Set(i, i, v)
		want += math.Log(v)
	}
	ch, err := NewCholesky(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.LogDet(); !almostEq(got, want, 1e-12) {
		t.Fatalf("LogDet = %g, want %g", got, want)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomSPD(rng, 10)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	matricesEqual(t, Mul(a, inv), Eye(10), 1e-8)
}

func TestCholeskyQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomSPD(rng, 9)
	b := make(Vec, 9)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Dot(b, ch.SolveVec(b))
	if got := ch.QuadForm(b); !almostEq(got, want, 1e-9) {
		t.Fatalf("QuadForm = %g, want %g", got, want)
	}
	if got := ch.QuadForm(b); got <= 0 {
		t.Fatalf("QuadForm must be positive for SPD, got %g", got)
	}
}

func TestCholeskyIndefiniteFails(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Rank-deficient PSD matrix (outer product) needs jitter.
	v := Vec{1, 2, 3}
	a := Outer(v, v)
	ch, jitter, err := NewCholeskyJitter(a, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Fatalf("expected positive jitter, got %g", jitter)
	}
	if ch.Size() != 3 {
		t.Fatalf("Size = %d", ch.Size())
	}
}

func TestCholeskyJitterNoOpWhenSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomSPD(rng, 6)
	_, jitter, err := NewCholeskyJitter(a, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if jitter != 0 {
		t.Fatalf("jitter = %g, want 0 for SPD input", jitter)
	}
}

func TestCholeskyJitterGivesUp(t *testing.T) {
	// A matrix with a hugely negative eigenvalue cannot be rescued by
	// tiny jitter within a couple of retries.
	a := NewFromRows([][]float64{{1, 0}, {0, -1e12}})
	if _, _, err := NewCholeskyJitter(a, 1e-12, 2); err == nil {
		t.Fatal("expected failure")
	}
}

// Property: for random SPD systems, the solve residual is tiny.
func TestCholeskySolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randomSPD(rng, n)
		b := make(Vec, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		r := SubVec(a.MulVec(x), b)
		return Norm2(r) <= 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: log det via Cholesky matches the product of eigenvalue-free
// 2x2 analytic determinant for random SPD 2x2 matrices.
func TestCholeskyLogDet2x2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// a c; c b with a,b > c ensures SPD when a*b - c² > 0.
		c := rng.Float64()
		a := 1 + rng.Float64()
		b := 1 + rng.Float64()
		m := NewFromRows([][]float64{{a, c}, {c, b}})
		det := a*b - c*c
		if det <= 1e-9 {
			return true // skip near-singular
		}
		ch, err := NewCholesky(m)
		if err != nil {
			return false
		}
		return almostEq(ch.LogDet(), math.Log(det), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyExtended(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	// Build an (n+1)x(n+1) SPD matrix, factorize the leading n×n block,
	// extend, and compare against the direct factorization.
	n := 8
	full := randomSPD(rng, n+1)
	lead := New(n, n)
	for i := 0; i < n; i++ {
		copy(lead.RawRow(i), full.RawRow(i)[:n])
	}
	border := make(Vec, n)
	for i := 0; i < n; i++ {
		border[i] = full.At(i, n)
	}
	chLead, err := NewCholesky(lead)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := chLead.Extended(border, full.At(n, n))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewCholesky(full)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, ext.L(), direct.L(), 1e-9)
	if ext.Size() != n+1 {
		t.Fatalf("Size = %d", ext.Size())
	}
}

func TestCholeskyExtendedRejectsIndefinite(t *testing.T) {
	ch, err := NewCholesky(Eye(2))
	if err != nil {
		t.Fatal(err)
	}
	// Border that makes the matrix indefinite: c < |L⁻¹b|².
	if _, err := ch.Extended(Vec{3, 4}, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkCholesky200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 200)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make(Vec, 200)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SolveVec(rhs)
	}
}

func BenchmarkCholeskyExtended200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 200)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	border := make(Vec, 200)
	for i := range border {
		border[i] = 0.01 * rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Extended(border, 300); err != nil {
			b.Fatal(err)
		}
	}
}
