package mat

import (
	"strings"
	"testing"
)

// TestCholeskyLargeNotPD verifies a large matrix with one negative diagonal
// entry deep in the factorization is reported as not positive definite.
func TestCholeskyLargeNotPD(t *testing.T) {
	n := 138
	a := NewDense(n, n)
	a.AddScaledIdentity(1)
	a.Set(n-3, n-3, -1) // one negative diagonal entry breaks PD
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("Cholesky accepted a non-PD matrix")
	}
}

// TestRobustCholeskyErrorReportsJitter checks the satellite contract: when
// every jitter attempt fails, the error names the total jitter tried.
func TestRobustCholeskyErrorReportsJitter(t *testing.T) {
	// A matrix with a hugely negative diagonal entry defeats any jitter the
	// escalation schedule can reach (it tops out near 1e-1 × mean diagonal).
	a := FromRows([][]float64{{1, 0}, {0, -1e30}})
	_, err := RobustCholesky(a)
	if err == nil {
		t.Fatal("RobustCholesky unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), "total jitter") {
		t.Fatalf("error does not report the attempted jitter total: %v", err)
	}
}

// TestRobustCholeskyLarge exercises the jitter path on a large
// rank-deficient matrix.
func TestRobustCholeskyLarge(t *testing.T) {
	n := 133
	one := make([]float64, n)
	for i := range one {
		one[i] = 1
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(a.Row(i), one) // rank-1 PSD: ones(n, n)
	}
	ch, err := RobustCholesky(a)
	if err != nil {
		t.Fatalf("RobustCholesky failed: %v", err)
	}
	if ch.Size() != n {
		t.Fatal("wrong size")
	}
}
