package mat

import (
	"math"
	"testing"
	"testing/quick"

	"parcost/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randMatrix(r *rng.Source, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal()
	}
	return m
}

// randSPD builds A = BᵀB + n*I which is safely positive definite.
func randSPD(r *rng.Source, n int) *Dense {
	b := randMatrix(r, n+3, n)
	a := AtA(b)
	a.AddScaledIdentity(float64(n))
	return a
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("dims %dx%d", r, c)
	}
	if m.At(1, 2) != 6 || m.At(0, 0) != 1 {
		t.Fatal("At returned wrong values")
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("transpose dims %dx%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul wrong at (%d,%d): %v", i, j, c.At(i, j))
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := randMatrix(r, 7, 7)
	id := NewDense(7, 7)
	id.AddScaledIdentity(1)
	c := Mul(a, id)
	for i := range a.Data {
		if !almostEq(a.Data[i], c.Data[i], 1e-14) {
			t.Fatal("A*I != A")
		}
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	// Size chosen to exceed parallelThreshold so the goroutine path runs.
	r := rng.New(2)
	a := randMatrix(r, 120, 130)
	b := randMatrix(r, 130, 110)
	got := Mul(a, b)
	want := NewDense(120, 110)
	mulRange(a, b, want, 0, 120)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("parallel Mul diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := MulVec(a, []float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v", i, y[i])
		}
	}
}

func TestMulTVec(t *testing.T) {
	r := rng.New(3)
	a := randMatrix(r, 15, 7)
	x := make([]float64, 15)
	for i := range x {
		x[i] = r.Normal()
	}
	got := MulTVec(a, x)
	want := MulVec(a.T(), x)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MulTVec mismatch at %d", i)
		}
	}
}

func TestAtA(t *testing.T) {
	r := rng.New(4)
	a := randMatrix(r, 20, 6)
	got := AtA(a)
	want := Mul(a.T(), a)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("AtA mismatch at %d", i)
		}
	}
	// Symmetry.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if got.At(i, j) != got.At(j, i) {
				t.Fatal("AtA not symmetric")
			}
		}
	}
}

func TestDotAxpyNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy wrong: %v", y)
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Normal()
		}
		b := MulVec(a, xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := ch.SolveVec(b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("n=%d: solve mismatch at %d: %v vs %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	r := rng.New(6)
	n := 12
	a := randSPD(r, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild L from the packed factor and verify L Lᵀ = A.
	l := ch.L()
	if len(ch.l) != n*(n+1)/2 {
		t.Fatalf("packed factor has %d entries, want %d", len(ch.l), n*(n+1)/2)
	}
	rec := Mul(l, l.T())
	for i := range a.Data {
		if !almostEq(rec.Data[i], a.Data[i], 1e-9) {
			t.Fatalf("L Lᵀ != A at %d: %v vs %v", i, rec.Data[i], a.Data[i])
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.LogDet(), math.Log(36), 1e-12) {
		t.Fatalf("LogDet = %v, want log(36)", ch.LogDet())
	}
}

func TestLSolveVec(t *testing.T) {
	r := rng.New(8)
	n := 10
	a := randSPD(r, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Normal()
	}
	y := ch.LSolveVec(b)
	// Verify L y = b.
	ly := MulVec(ch.L(), y)
	for i := range b {
		if !almostEq(ly[i], b[i], 1e-9) {
			t.Fatalf("LSolveVec residual at %d", i)
		}
	}
}

func TestRobustCholeskyJitter(t *testing.T) {
	// Rank-deficient PSD matrix: ones(3,3). Plain Cholesky fails; robust
	// version must succeed via jitter.
	a := FromRows([][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("plain Cholesky unexpectedly succeeded on singular matrix")
	}
	ch, err := RobustCholesky(a)
	if err != nil {
		t.Fatalf("RobustCholesky failed: %v", err)
	}
	if ch.Size() != 3 {
		t.Fatal("wrong size")
	}
}

func TestSolveSPD(t *testing.T) {
	r := rng.New(9)
	a := randSPD(r, 6)
	xTrue := []float64{1, -2, 3, -4, 5, -6}
	b := MulVec(a, xTrue)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("SolveSPD mismatch at %d", i)
		}
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random shapes.
func TestQuickMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 2 + r.Intn(8)
		k := 2 + r.Intn(8)
		n := 2 + r.Intn(8)
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		left := Mul(a, b).T()
		right := Mul(b.T(), a.T())
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve residual is tiny for random SPD systems.
func TestQuickCholeskyResidual(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Normal()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		res := MulVec(a, x)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul200(b *testing.B) {
	r := rng.New(1)
	x := randMatrix(r, 200, 200)
	y := randMatrix(r, 200, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkCholesky200(b *testing.B) {
	r := rng.New(1)
	a := randSPD(r, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}
