package mat

// Cholesky factorization of symmetric positive definite matrices.
//
// The factor is held in PACKED row-major lower-triangle storage — n(n+1)/2
// entries instead of n² — halving the resident memory of every fitted kernel
// model and loaded GP artifact that keeps its factor alive. Factorization
// itself runs the scalar column-by-column loop on a full n×n scratch buffer.

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L Lᵀ in
// packed row-major lower-triangle storage: element (i, j), j ≤ i, lives at
// index i(i+1)/2 + j.
type Cholesky struct {
	n int
	l []float64 // packed row-major lower triangle, n(n+1)/2 entries
}

// NewCholesky factorizes the SPD matrix a. It returns an error if a is not
// square or not positive definite (within floating-point tolerance). The
// input is not modified.
func NewCholesky(a *Dense) (*Cholesky, error) {
	return newCholesky(a, nil)
}

// newCholesky copies a into an n×n scratch (reusing scratch when it is
// non-nil and correctly sized), factors it in place, and packs the lower
// triangle into the resident factor.
func newCholesky(a *Dense, scratch []float64) (*Cholesky, error) {
	if a.RowsN != a.ColsN {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.RowsN, a.ColsN)
	}
	n := a.RowsN
	w := scratch
	if len(w) != n*n {
		w = make([]float64, n*n)
	}
	copy(w, a.Data)
	if err := cholFactor(w, n); err != nil {
		return nil, err
	}
	l := make([]float64, n*(n+1)/2)
	for i, off := 0, 0; i < n; i++ {
		copy(l[off:off+i+1], w[i*n:i*n+i+1])
		off += i + 1
	}
	return &Cholesky{n: n, l: l}, nil
}

// cholFactor factors the n×n matrix w in place with the column-by-column
// scalar loop. Every inner product accumulates in ascending column order,
// one multiply-subtract at a time.
func cholFactor(w []float64, n int) error {
	for k := 0; k < n; k++ {
		d := w[k*n+k]
		wk := w[k*n : k*n+k]
		for _, v := range wk {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("mat: matrix not positive definite at pivot %d (d=%g)", k, d)
		}
		dk := math.Sqrt(d)
		w[k*n+k] = dk
		for i := k + 1; i < n; i++ {
			s := w[i*n+k]
			wi := w[i*n : i*n+k]
			for p, v := range wk {
				s -= wi[p] * v
			}
			w[i*n+k] = s / dk
		}
	}
	return nil
}

// Size returns the factorized dimension.
func (c *Cholesky) Size() int { return c.n }

// L returns the lower-triangular factor unpacked into a full n×n matrix
// (a copy; the strict upper triangle is zero).
func (c *Cholesky) L() *Dense {
	out := NewDense(c.n, c.n)
	for i, off := 0, 0; i < c.n; i++ {
		copy(out.Data[i*c.n:i*c.n+i+1], c.l[off:off+i+1])
		off += i + 1
	}
	return out
}

// SolveVec solves A x = b for x, overwriting nothing.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	if len(b) != c.n {
		panic("mat: Cholesky SolveVec length mismatch")
	}
	x := append([]float64(nil), b...)
	c.solveInPlace(x)
	return x
}

// solveInPlace solves A x = b where b is overwritten with x.
func (c *Cholesky) solveInPlace(x []float64) {
	n, l := c.n, c.l
	// Forward substitution L y = b; packed row i is contiguous.
	for i, base := 0, 0; i < n; i++ {
		s := x[i]
		row := l[base : base+i]
		for p, v := range row {
			s -= v * x[p]
		}
		x[i] = s / l[base+i]
		base += i + 1
	}
	// Back substitution Lᵀ x = y; column i of L walks rows below the
	// diagonal, index (p, i) = p(p+1)/2 + i stepping by p+1 per row.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		off := (i+1)*(i+2)/2 + i
		for p := i + 1; p < n; p++ {
			s -= l[off] * x[p]
			off += p + 1
		}
		x[i] = s / l[i*(i+1)/2+i]
	}
}

// LogDet returns log|A| = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i, off := 0, 0; i < c.n; i++ {
		s += math.Log(c.l[off+i])
		off += i + 1
	}
	return 2 * s
}

// LSolveVec solves L y = b (forward substitution only). Gaussian process
// predictive variance needs this half-solve.
func (c *Cholesky) LSolveVec(b []float64) []float64 {
	y := append([]float64(nil), b...)
	c.LSolveVecInto(y, y)
	return y
}

// LSolveVecInto solves L y = b into dst without allocating. dst and b must
// both have length n; they may alias. Hot prediction loops (GP posterior
// variance) use this to reuse one scratch buffer across rows.
func (c *Cholesky) LSolveVecInto(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic("mat: LSolveVecInto length mismatch")
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	n, l := c.n, c.l
	for i, base := 0, 0; i < n; i++ {
		s := dst[i]
		row := l[base : base+i]
		for p, v := range row {
			s -= v * dst[p]
		}
		dst[i] = s / l[base+i]
		base += i + 1
	}
}

// SolveSPD solves A x = b for SPD A, adding escalating jitter to the
// diagonal if the factorization fails. Kernel matrices are routinely
// borderline-singular, so this is the standard robust entry point used by
// the regressors. It returns an error only if even large jitter fails.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	ch, err := RobustCholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b), nil
}

// RobustCholesky factorizes a with escalating diagonal jitter on failure.
// One scratch copy of a carries both the accumulating jitter and the
// factorization workspace across every retry, so the attempts allocate no
// further n² buffers; a itself is untouched.
func RobustCholesky(a *Dense) (*Cholesky, error) {
	scratch := make([]float64, a.RowsN*a.ColsN)
	ch, err := newCholesky(a, scratch)
	if err == nil {
		return ch, nil
	}
	// Scale jitter to the mean diagonal magnitude.
	var diag float64
	for i := 0; i < a.RowsN; i++ {
		diag += math.Abs(a.At(i, i))
	}
	diag /= float64(a.RowsN)
	if diag == 0 {
		diag = 1
	}
	work := a.Clone()
	jitter := diag * 1e-12
	total := 0.0
	for attempt := 0; attempt < 12; attempt++ {
		work.AddScaledIdentity(jitter)
		total += jitter
		if ch, err = newCholesky(work, scratch); err == nil {
			return ch, nil
		}
		jitter *= 10
	}
	return nil, fmt.Errorf("mat: RobustCholesky failed even with total jitter %g: %w", total, err)
}
