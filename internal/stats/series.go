package stats

import (
	"math"
	"time"
)

// Sample is a single time-stamped observation in a Series. T is an offset
// from simulation start, matching the simulator's clock convention.
type Sample struct {
	T time.Duration
	V float64
}

// Series is an append-only time series. It backs the utilization and
// time-limit traces plotted in Figs 14, 16, 17, and 19.
type Series struct {
	name    string
	samples []Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{name: name}
}

// MakeSeries returns an empty named series by value, for owners that hold
// their series inline instead of allocating each one.
func MakeSeries(name string) Series { return Series{name: name} }

// Name returns the series name used in rendered output.
func (s *Series) Name() string { return s.name }

// Append records an observation. Timestamps are expected to be
// non-decreasing; Append keeps whatever it is given so that tests can
// verify the producer's ordering separately.
func (s *Series) Append(t time.Duration, v float64) {
	s.samples = append(s.samples, Sample{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Samples returns the raw samples (not a copy; callers must not mutate).
func (s *Series) Samples() []Sample { return s.samples }

// Mean returns the arithmetic mean of the sample values, or 0 for an empty
// series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.samples {
		sum += p.V
	}
	return sum / float64(len(s.samples))
}

// MeanBetween returns the mean of values with from <= T < to, and false if
// no samples fall in the interval.
func (s *Series) MeanBetween(from, to time.Duration) (float64, bool) {
	sum, n := 0.0, 0
	for _, p := range s.samples {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Downsample returns at most n samples evenly spaced across the series,
// for compact CSV export of long traces. If the series has fewer than n
// samples it is returned as a copy.
func (s *Series) Downsample(n int) []Sample {
	if n <= 0 || len(s.samples) == 0 {
		return nil
	}
	if len(s.samples) <= n {
		out := make([]Sample, len(s.samples))
		copy(out, s.samples)
		return out
	}
	out := make([]Sample, 0, n)
	step := float64(len(s.samples)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= len(s.samples) {
			idx = len(s.samples) - 1
		}
		out = append(out, s.samples[idx])
	}
	return out
}
