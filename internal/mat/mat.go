// Package mat implements the dense linear algebra needed by parcost's
// kernel-based regressors (kernel ridge, Gaussian processes, Bayesian ridge,
// polynomial least squares).
//
// The implementation is deliberately small: row-major dense matrices, a
// cache-blocked and goroutine-parallel matrix multiply, a Cholesky
// factorization for symmetric positive definite solves (packed lower-triangle
// storage; scalar reference and bit-identical blocked-parallel modes; blocked
// multi-RHS solves), and EigSym, a symmetric eigendecomposition (Householder
// tridiagonalization + implicit-shift QL) whose ShiftSolve/ShiftLogDet answer
// (A + sI)x = b systems for any shift s in O(n²)/O(n) off one O(n³)
// factorization — the spectral-reuse primitive behind hyper-parameter sweeps
// along ridge-alpha/GP-noise axes. These operations dominate every fit in the
// ML stack; nothing else from a full BLAS/LAPACK is required.
//
// mat is one of the repo's deterministic compute packages: outputs are pure
// functions of inputs (bit-identical at any GOMAXPROCS; no wall clock, no
// unsanctioned randomness), an invariant enforced mechanically by
// cmd/parcost-lint — see the README's "Determinism contract". It is also one
// of the audited homes for GOMAXPROCS-dependent partitioning, and exports
// Workers() as the choke point other packages size worker pools through.
package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Dense is a row-major dense matrix.
type Dense struct {
	RowsN, ColsN int
	Data         []float64
}

// NewDense allocates an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{RowsN: r, ColsN: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.RowsN, m.ColsN }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.ColsN+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.ColsN+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.ColsN : (i+1)*m.ColsN] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.RowsN, m.ColsN)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.ColsN, m.RowsN)
	for i := 0; i < m.RowsN; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.ColsN+i] = v
		}
	}
	return t
}

// AddScaledIdentity adds s to the diagonal in place. The matrix must be
// square.
func (m *Dense) AddScaledIdentity(s float64) {
	if m.RowsN != m.ColsN {
		panic("mat: AddScaledIdentity on non-square matrix")
	}
	for i := 0; i < m.RowsN; i++ {
		m.Data[i*m.ColsN+i] += s
	}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// parallelThreshold is the flop count above which Mul fans out to
// goroutines; below it the scheduling overhead exceeds the gain.
const parallelThreshold = 1 << 20

// Mul returns a * b using a cache-blocked ikj loop order, parallelized over
// row blocks of a when the problem is large enough.
func Mul(a, b *Dense) *Dense {
	if a.ColsN != b.RowsN {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.RowsN, a.ColsN, b.RowsN, b.ColsN))
	}
	out := NewDense(a.RowsN, b.ColsN)
	flops := a.RowsN * a.ColsN * b.ColsN
	parallelRows(0, a.RowsN, flops, func(lo, hi int) {
		mulRange(a, b, out, lo, hi)
	})
	return out
}

// Workers is the repo's one audited GOMAXPROCS read: every worker pool whose
// output is bit-identity-pinned (pre-derived seeds, indexed writes, ordered
// error selection) sizes itself here instead of calling runtime.GOMAXPROCS
// directly, so the determinism argument has to be made once per pool, at a
// call site the gomaxprocsdep analyzer can audit. See the README's
// "Determinism contract".
func Workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// parallelRows runs f over contiguous sub-ranges of [lo, hi), fanning out to
// GOMAXPROCS goroutines when the estimated flop count justifies the
// scheduling overhead. Mul uses it; since every output element is written
// by exactly one range, the split cannot change results.
func parallelRows(lo, hi, flops int, f func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if flops < parallelThreshold || workers < 2 || n == 1 {
		f(lo, hi)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for s := lo; s < hi; s += chunk {
		e := s + chunk
		if e > hi {
			e = hi
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			f(s, e)
		}(s, e)
	}
	wg.Wait()
}

// mulRange computes rows [lo, hi) of out = a*b with ikj ordering, which
// streams b row-wise and keeps the inner loop vectorizable.
func mulRange(a, b, out *Dense, lo, hi int) {
	n, p := a.ColsN, b.ColsN
	for i := lo; i < hi; i++ {
		ai := a.Data[i*n : (i+1)*n]
		oi := out.Data[i*p : (i+1)*p]
		for k := 0; k < n; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*p : (k+1)*p]
			for j, bv := range bk {
				oi[j] += aik * bv
			}
		}
	}
}

// MulVec returns a * x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.ColsN != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", a.RowsN, a.ColsN, len(x)))
	}
	out := make([]float64, a.RowsN)
	for i := 0; i < a.RowsN; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// MulTVec returns aᵀ * x without forming the transpose.
func MulTVec(a *Dense, x []float64) []float64 {
	if a.RowsN != len(x) {
		panic("mat: MulTVec dimension mismatch")
	}
	out := make([]float64, a.ColsN)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// AtA returns aᵀa, exploiting symmetry (only the upper triangle is computed
// and mirrored). Used to form normal equations.
func AtA(a *Dense) *Dense {
	n := a.ColsN
	out := NewDense(n, n)
	for r := 0; r < a.RowsN; r++ {
		row := a.Row(r)
		for i := 0; i < n; i++ {
			ri := row[i]
			if ri == 0 {
				continue
			}
			oi := out.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				oi[j] += ri * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
