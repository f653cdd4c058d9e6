// Package regress fits empirical complexity exponents: the ordinary
// least-squares linear regression on a log×log scale that the paper uses to
// annotate Figure 3 (e.g. "O(n^1.03)" for the new algorithm on LS4 and
// "O(n^4.52)" for the old one on NL4).
//
// Fitting log t = α·log n + β over measured (n, t) pairs yields the
// empirical exponent α of a power-law runtime t ≈ e^β · n^α. NearestRank
// reads quantiles off measured latency samples.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Fit is the result of a log–log least-squares regression.
type Fit struct {
	// Exponent is the slope α: the empirical complexity exponent.
	Exponent float64
	// Scale is e^β: the constant factor of the power law.
	Scale float64
	// R2 is the coefficient of determination of the fit in log space
	// (1 = perfect power law).
	R2 float64
	// Points is the number of samples used.
	Points int
}

// String renders the fit in the paper's notation.
func (f Fit) String() string {
	return fmt.Sprintf("O(n^%.2f) (R²=%.3f, %d points)", f.Exponent, f.R2, f.Points)
}

// ErrTooFewPoints reports a regression attempted on fewer than two usable
// samples.
var ErrTooFewPoints = errors.New("regress: need at least two positive samples")

// LogLog fits t ≈ Scale·n^Exponent over the given samples by least squares
// in log space. Samples with non-positive n or t are skipped (a timed-out
// or unmeasured point has no log); at least two usable samples are
// required.
func LogLog(ns []int, ts []float64) (Fit, error) {
	if len(ns) != len(ts) {
		return Fit{}, fmt.Errorf("regress: %d sizes vs %d times", len(ns), len(ts))
	}
	var xs, ys []float64
	for i := range ns {
		if ns[i] <= 0 || ts[i] <= 0 || math.IsNaN(ts[i]) || math.IsInf(ts[i], 0) {
			continue
		}
		xs = append(xs, math.Log(float64(ns[i])))
		ys = append(ys, math.Log(ts[i]))
	}
	if len(xs) < 2 {
		return Fit{}, ErrTooFewPoints
	}
	slope, intercept, r2, err := leastSquares(xs, ys)
	if err != nil {
		return Fit{}, err
	}
	return Fit{Exponent: slope, Scale: math.Exp(intercept), R2: r2, Points: len(xs)}, nil
}

// leastSquares performs ordinary least squares of y over x and returns the
// slope, intercept and R².
func leastSquares(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	n := float64(len(xs))
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/n, sumY/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("regress: all sample sizes identical")
	}
	slope = sxy / sxx
	intercept = meanY - slope*meanX
	if syy == 0 {
		// All y equal: the fit is exact and flat.
		return slope, intercept, 1, nil
	}
	ssRes := 0.0
	for i := range xs {
		resid := ys[i] - (slope*xs[i] + intercept)
		ssRes += resid * resid
	}
	r2 = 1 - ssRes/syy
	return slope, intercept, r2, nil
}

// NearestRank returns the q-quantile of an ascending sample by the
// nearest-rank definition: the smallest element such that at least q·n of
// the sample is ≤ it, i.e. index ⌈q·n⌉−1, clamped to the sample. The form
// int(q·(n−1)) truncates instead of rounding up and underestimates small
// samples: p99 of two samples would be the minimum. An empty sample has no
// quantile and reports 0 by convention. The serving tier's /metrics and
// miaload's report both read their latency quantiles with it.
func NearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}
