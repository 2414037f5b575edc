package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{1, 2, 5, 20} {
		a := randomDense(rng, n, n)
		a.AddDiag(float64(n)) // keep well-conditioned
		xTrue := make(Vec, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		f, err := NewLU(a)
		if err != nil {
			t.Fatal(err)
		}
		x := f.SolveVec(b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-9) {
				t.Fatalf("n=%d: x[%d]=%g want %g", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randomDense(rng, 8, 8)
	a.AddDiag(8)
	b := randomDense(rng, 8, 3)
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(b)
	matricesEqual(t, Mul(a, x), b, 1e-9)
}

func TestLUDet(t *testing.T) {
	// 2x2 analytic determinant.
	a := NewFromRows([][]float64{{3, 1}, {2, 5}})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 13, 1e-12) {
		t.Fatalf("Det = %g, want 13", f.Det())
	}
	// Permutation changes the sign correctly.
	p := NewFromRows([][]float64{{0, 1}, {1, 0}})
	fp, err := NewLU(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fp.Det(), -1, 1e-12) {
		t.Fatalf("permutation Det = %g, want -1", fp.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewFromRows([][]float64{{0, 1}, {1, 0}})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveVec(Vec{3, 7})
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestCondEst1(t *testing.T) {
	// Identity: condition number 1.
	c, err := CondEst1(Eye(5))
	if err != nil {
		t.Fatal(err)
	}
	if c < 1-1e-12 || c > 1.5 {
		t.Fatalf("cond(I) estimate = %g", c)
	}
	// Badly scaled diagonal: cond = 1e8; the estimator must see most
	// of it.
	d := Eye(4)
	d.Set(0, 0, 1e8)
	c, err = CondEst1(d)
	if err != nil {
		t.Fatal(err)
	}
	if c < 1e7 {
		t.Fatalf("cond estimate %g for a 1e8-conditioned matrix", c)
	}
}

func TestQRSolveLSExact(t *testing.T) {
	// Square well-conditioned system: LS solution equals the exact one.
	rng := rand.New(rand.NewSource(62))
	a := randomDense(rng, 6, 6)
	a.AddDiag(6)
	xTrue := make(Vec, 6)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-9) {
			t.Fatalf("x[%d] = %g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestQROverdetermined(t *testing.T) {
	// Overdetermined noisy linear fit: QR must match the normal
	// equations solved by Cholesky.
	rng := rand.New(rand.NewSource(63))
	m, n := 50, 3
	a := randomDense(rng, m, n)
	b := make(Vec, m)
	for i := range b {
		b[i] = 2*a.At(i, 0) - a.At(i, 1) + 0.5*a.At(i, 2) + 0.01*rng.NormFloat64()
	}
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	// Normal equations reference.
	ata := SyrkT(a)
	aty := a.MulVecT(b)
	ch, err := NewCholesky(ata)
	if err != nil {
		t.Fatal(err)
	}
	ref := ch.SolveVec(aty)
	for i := range x {
		if !almostEq(x[i], ref[i], 1e-8) {
			t.Fatalf("QR %v vs normal equations %v", x, ref)
		}
	}
	// The LS residual must not be improvable by the reference.
	if Residual(a, x, b) > Residual(a, ref, b)+1e-10 {
		t.Fatal("QR residual worse than normal equations")
	}
}

func TestQRShapeValidation(t *testing.T) {
	if _, err := NewQR(New(2, 3)); err == nil {
		t.Fatal("expected error for wide matrix")
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: rank deficient.
	a := NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveLS(Vec{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRRMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := randomDense(rng, 7, 4)
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	// RᵀR must equal AᵀA (since QᵀQ = I).
	lhs := Mul(r.T(), r)
	rhs := SyrkT(a)
	matricesEqual(t, lhs, rhs, 1e-10)
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

// Property: LU determinant matches the Cholesky-based determinant for SPD
// matrices (det = exp(LogDet)).
func TestLUvsCholeskyDetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		lu, err1 := NewLU(a)
		ch, err2 := NewCholesky(a)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEq(math.Log(lu.Det()), ch.LogDet(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLU100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 100, 100)
	a.AddDiag(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLU(a); err != nil {
			b.Fatal(err)
		}
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
