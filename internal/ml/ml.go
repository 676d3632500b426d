// Package ml defines the common interface and helpers shared by parcost's
// regression models. The models themselves live in sub-packages
// (linmodel, kernel, tree, ensemble), each implementing Regressor.
//
// The feature layout throughout parcost is the paper's four-feature vector
// ⟨O, V, NumNodes, TileSize⟩, but nothing here assumes a fixed dimension:
// the interface operates on [][]float64 feature matrices and []float64
// targets, so the same models drive the STQ, BQ, and active-learning
// experiments unchanged.
package ml

import (
	"fmt"
	"math"
)

// Regressor is a fitted or fittable supervised regression model.
type Regressor interface {
	// Fit trains the model on feature rows x and targets y. len(x) must
	// equal len(y) and every row must have the same length.
	Fit(x [][]float64, y []float64) error
	// Predict returns one prediction per input row.
	Predict(x [][]float64) []float64
	// Name returns a short identifier used in result tables.
	Name() string
}

// StdPredictor is implemented by models that expose predictive
// uncertainty (Gaussian processes), required by uncertainty-sampling
// active learning (Algorithm 1).
type StdPredictor interface {
	Regressor
	// PredictStd returns predictions and their posterior standard
	// deviations, one per input row.
	PredictStd(x [][]float64) (mean, std []float64)
}

// PredictOne is a convenience wrapper for a single-row prediction.
func PredictOne(m Regressor, row []float64) float64 {
	return m.Predict([][]float64{row})[0]
}

// CheckXY validates that a feature matrix and target vector are consistent
// and non-empty, returning the feature dimension.
func CheckXY(x [][]float64, y []float64) (int, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("ml: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d feature rows but %d targets", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return 0, fmt.Errorf("ml: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != d {
			return 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("ml: non-finite feature at (%d,%d)", i, j)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("ml: non-finite target at %d", i)
		}
	}
	return d, nil
}

// CloneMatrix returns a deep copy of a feature matrix.
func CloneMatrix(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// Subset returns the rows of x and entries of y at the given indices.
func Subset(x [][]float64, y []float64, idx []int) ([][]float64, []float64) {
	sx := make([][]float64, len(idx))
	sy := make([]float64, len(idx))
	for i, j := range idx {
		sx[i] = x[j]
		sy[i] = y[j]
	}
	return sx, sy
}

// ColumnDim returns the feature dimension of x, or 0 if empty.
func ColumnDim(x [][]float64) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}
