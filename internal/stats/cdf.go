// Package stats provides the statistical primitives shared by the
// scheduler simulator, the trace generator, and the experiment harness:
// empirical CDFs and quantiles, sliding-window percentiles, time series,
// histograms, and two-sample distance measures.
//
// All functions operate on float64 samples; durations are converted by the
// callers (conventionally to milliseconds) so that rendered figures match
// the units used in the paper.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by constructors that require at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// CDF is an immutable empirical cumulative distribution function built from
// a finite sample set. The zero value is not usable; build one with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples and takes ownership of the
// slice: it sorts samples in place and keeps it, so it allocates nothing,
// and the caller must not use the slice afterwards (a caller that does
// passes a copy). It returns ErrNoSamples for empty input.
func NewCDF(samples []float64) (CDF, error) {
	if len(samples) == 0 {
		return CDF{}, ErrNoSamples
	}
	sort.Float64s(samples)
	return CDF{sorted: samples}, nil
}

// MustCDF is NewCDF that panics on error, and takes ownership of samples
// the same way. It is intended for tests and for call sites that have
// already validated their input.
func MustCDF(samples []float64) CDF {
	c, err := NewCDF(samples)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of samples backing the CDF.
func (c CDF) N() int { return len(c.sorted) }

// Min returns the smallest sample.
func (c CDF) Min() float64 { return c.sorted[0] }

// Max returns the largest sample.
func (c CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// At returns P(X <= x), the fraction of samples at or below x.
func (c CDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of samples <= x, i.e. the first index with sorted[i] > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method, matching the paper's "pN" notation (Quantile(0.99) is p99).
// Values of q outside [0, 1] are clamped.
func (c CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c.sorted) {
		rank = len(c.sorted) - 1
	}
	return c.sorted[rank]
}

// Mean returns the arithmetic mean of the samples.
func (c CDF) Mean() float64 {
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Sum returns the sum of all samples.
func (c CDF) Sum() float64 {
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum
}

// Point is a single (x, y) pair of a rendered curve.
type Point struct {
	X float64
	Y float64
}

// Curve samples the CDF at n evenly spaced sample ranks and returns the
// resulting polyline, suitable for plotting or CSV export. The first point
// is (min, 1/N) and the last is (max, 1). n must be at least 2; smaller
// values are treated as 2.
func (c CDF) Curve(n int) []Point {
	if n < 2 {
		n = 2
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// Evenly spaced ranks from the first to the last sample.
		rank := (i * (len(c.sorted) - 1)) / (n - 1)
		pts = append(pts, Point{
			X: c.sorted[rank],
			Y: float64(rank+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// KSDistance returns the two-sample Kolmogorov-Smirnov statistic between two
// empirical CDFs: the supremum of |F1(x) - F2(x)| over all x. It is used by
// the Fig 10 experiment to quantify how closely the sampled workload tracks
// the full synthetic trace.
func KSDistance(a, b CDF) float64 {
	maxDiff := 0.0
	// The supremum is attained at a sample point of either distribution.
	for _, x := range a.sorted {
		if d := math.Abs(a.At(x) - b.At(x)); d > maxDiff {
			maxDiff = d
		}
	}
	for _, x := range b.sorted {
		if d := math.Abs(a.At(x) - b.At(x)); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// Percentile computes the q-quantile of samples. It sorts a copy, so
// samples is left as it was. It returns an error for empty input.
func Percentile(samples []float64, q float64) (float64, error) {
	c, err := NewCDF(append([]float64(nil), samples...))
	if err != nil {
		return 0, err
	}
	return c.Quantile(q), nil
}

// Describe returns a short human-readable summary of the distribution,
// used in harness logs.
func (c CDF) Describe() string {
	return fmt.Sprintf("n=%d min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f mean=%.3f",
		c.N(), c.Min(), c.Quantile(0.50), c.Quantile(0.90), c.Quantile(0.99), c.Max(), c.Mean())
}
