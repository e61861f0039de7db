// Package regress implements the small amount of numerical machinery the
// virtualization design advisor needs: ordinary least squares in one and
// many dimensions, and solving small dense linear systems.
//
// The paper uses linear regression in three places: renormalizing DB2
// timerons to seconds (§4.2), fitting calibration functions that map
// resource allocations to optimizer parameters (§4.3–4.4), and fitting the
// per-workload cost models used by online refinement (§5). All three are
// served by this package.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no unique solution, e.g. when
// all calibration samples share the same x value.
var ErrSingular = errors.New("regress: singular system")

// ErrShape is returned when input slices have mismatched or insufficient
// lengths.
var ErrShape = errors.New("regress: bad input shape")

// Line is a fitted 1-D linear model y = Slope*x + Intercept.
type Line struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit on its own
	// training points; 1 means a perfect fit.
	R2 float64
}

// Eval returns the model's prediction at x.
func (l Line) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// String formats the line for diagnostics.
func (l Line) String() string {
	return fmt.Sprintf("y = %.6g*x + %.6g (R2=%.4f)", l.Slope, l.Intercept, l.R2)
}

// Fit1D computes the ordinary-least-squares line through (xs[i], ys[i]).
// At least two points with distinct x values are required.
func Fit1D(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Line{}, ErrShape
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if math.Abs(det) < 1e-12*(1+math.Abs(n*sxx)) {
		return Line{}, ErrSingular
	}
	slope := (n*sxy - sx*sy) / det
	intercept := (sy - slope*sx) / n
	l := Line{Slope: slope, Intercept: intercept}
	l.R2 = r2For(xs, ys, l.Eval)
	return l, nil
}

// FitThroughOrigin fits y = Slope*x with no intercept, used for cost-unit
// renormalization where zero estimated cost must map to zero seconds.
func FitThroughOrigin(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) || len(xs) < 1 {
		return Line{}, ErrShape
	}
	var sxx, sxy float64
	for i := range xs {
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	if sxx < 1e-300 {
		return Line{}, ErrSingular
	}
	l := Line{Slope: sxy / sxx}
	l.R2 = r2For(xs, ys, l.Eval)
	return l, nil
}

func r2For(xs, ys []float64, f func(float64) float64) float64 {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssTot, ssRes float64
	for i := range xs {
		d := ys[i] - mean
		ssTot += d * d
		r := ys[i] - f(xs[i])
		ssRes += r * r
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Multi is a fitted multi-dimensional linear model
// y = Coef[0]*x[0] + ... + Coef[d-1]*x[d-1] + Intercept.
type Multi struct {
	Coef      []float64
	Intercept float64
	R2        float64
}

// Eval returns the model's prediction for feature vector x.
func (m Multi) Eval(x []float64) float64 {
	v := m.Intercept
	for i, c := range m.Coef {
		v += c * x[i]
	}
	return v
}

// FitMulti computes a least-squares fit of y against the feature rows in X
// (each row one observation), including an intercept term. It requires at
// least dim+1 observations.
//
// Online refinement (§5.2) uses this to fit the generalized cost equation
// Cost(W, R) = Σ_j α_j/r_j + β within each plan interval, with the features
// being the reciprocals 1/r_j.
func FitMulti(X [][]float64, y []float64) (Multi, error) {
	if len(X) == 0 || len(X) != len(y) {
		return Multi{}, ErrShape
	}
	dim := len(X[0])
	for _, row := range X {
		if len(row) != dim {
			return Multi{}, ErrShape
		}
	}
	if len(X) < dim+1 {
		return Multi{}, ErrShape
	}
	// Build the normal equations (A^T A) c = A^T y with an appended
	// intercept column.
	n := dim + 1
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	aty := make([]float64, n)
	feat := func(row []float64, j int) float64 {
		if j == dim {
			return 1
		}
		return row[j]
	}
	for k, row := range X {
		for i := 0; i < n; i++ {
			fi := feat(row, i)
			aty[i] += fi * y[k]
			for j := 0; j < n; j++ {
				ata[i][j] += fi * feat(row, j)
			}
		}
	}
	c, err := Solve(ata, aty)
	if err != nil {
		return Multi{}, err
	}
	m := Multi{Coef: c[:dim], Intercept: c[dim]}
	// R2 on training data.
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssTot, ssRes float64
	for k, row := range X {
		d := y[k] - mean
		ssTot += d * d
		r := y[k] - m.Eval(row)
		ssRes += r * r
	}
	if ssTot == 0 {
		m.R2 = 1
	} else {
		m.R2 = 1 - ssRes/ssTot
	}
	return m, nil
}

// Solve solves the dense linear system A·x = b using Gaussian elimination
// with partial pivoting. A is modified; pass a copy if you need it intact.
//
// Calibration (§4.3 step 3) solves systems of k optimizer cost equations in
// k unknown parameters; k is small (typically 1–3), so a direct method is
// appropriate.
func Solve(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	if n == 0 || len(b) != n {
		return nil, ErrShape
	}
	// Work on copies so callers may reuse inputs.
	m := make([][]float64, n)
	for i := range A {
		if len(A[i]) != n {
			return nil, ErrShape
		}
		m[i] = append([]float64(nil), A[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		v := x[col]
		for c := col + 1; c < n; c++ {
			v -= m[col][c] * x[c]
		}
		x[col] = v / m[col][col]
	}
	return x, nil
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MaxAbsRelError returns max_i |pred(i)-y[i]| / max(|y[i]|, eps), a scale-
// free fit-quality measure used by calibration self-checks.
func MaxAbsRelError(pred, y []float64) float64 {
	const eps = 1e-12
	var worst float64
	for i := range y {
		den := math.Abs(y[i])
		if den < eps {
			den = eps
		}
		if e := math.Abs(pred[i]-y[i]) / den; e > worst {
			worst = e
		}
	}
	return worst
}
