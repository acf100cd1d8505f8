// Package fib provides the Fibonacci workload used throughout the paper's
// evaluation: the actual CPU-bound recursive kernel (run in realproc mode
// and in calibration), and an analytic duration model used by the
// simulator, where fib(N) stands in for a serverless function whose service
// demand grows by the golden ratio per increment of N.
//
// The paper calibrates fib binaries for N = 36..46 against buckets of the
// Azure trace's function durations (§V-B).
package fib

import (
	"fmt"
	"math"
	"time"
)

// MinN and MaxN bound the calibrated argument range used by the paper.
const (
	MinN = 36
	MaxN = 46
)

// Phi is the golden ratio; naive-recursion cost of fib(N) grows as φ^N.
var Phi = (1 + math.Sqrt(5)) / 2

// Compute runs the naive exponential-time recursive Fibonacci and returns
// fib(n). It is intentionally unmemoized: its running time is the workload.
func Compute(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return Compute(n-1) + Compute(n-2)
}

// Measure runs Compute(n) and returns both the result and the wall-clock
// duration. Used by calibration in realproc mode.
func Measure(n int) (uint64, time.Duration) {
	start := time.Now()
	v := Compute(n)
	return v, time.Since(start)
}

// DurationModel maps a Fibonacci argument N to a modeled single-core
// service demand: T(N) = Base · φ^(N−BaseN). The paper's calibration runs
// each binary 100× and averages; the model reproduces the resulting
// geometric ladder without needing the hardware.
type DurationModel struct {
	// BaseN is the argument whose duration anchors the ladder.
	BaseN int
	// Base is the modeled duration of fib(BaseN) on a dedicated core.
	Base time.Duration
}

// DefaultModel anchors fib(36) at 120 ms, in line with commodity-Xeon
// measurements of the naive kernel; fib(46) then lands near 14.8 s, giving
// the paper's p90 ≈ 1.6 s workload shape.
func DefaultModel() DurationModel {
	return DurationModel{BaseN: MinN, Base: 120 * time.Millisecond}
}

// Duration returns the modeled service demand of fib(n), or -1 when it
// does not fit a time.Duration.
func (m DurationModel) Duration(n int) time.Duration {
	d := float64(m.Base) * math.Pow(Phi, float64(n-m.BaseN))
	if d >= math.MaxInt64 {
		return -1
	}
	return time.Duration(d)
}

// Table returns the modeled duration for every N in [MinN, MaxN],
// mirroring the calibration table the workload builder buckets against.
func (m DurationModel) Table() map[int]time.Duration {
	out := make(map[int]time.Duration, MaxN-MinN+1)
	for n := MinN; n <= MaxN; n++ {
		out[n] = m.Duration(n)
	}
	return out
}

// NearestN returns the calibrated argument whose modeled duration is
// closest to d (in log space, since the ladder is geometric), clamped to
// [MinN, MaxN]. This is the paper's bucketing step: every Azure function
// duration is mapped to the fib argument that best represents it.
func (m DurationModel) NearestN(d time.Duration) int {
	if d <= 0 {
		return MinN
	}
	// Solve Base·φ^(n−BaseN) = d for n, then round.
	n := float64(m.BaseN) + math.Log(float64(d)/float64(m.Base))/math.Log(Phi)
	rounded := int(math.Round(n))
	if rounded < MinN {
		return MinN
	}
	if rounded > MaxN {
		return MaxN
	}
	return rounded
}

// Validate reports an error if the model is unusable.
func (m DurationModel) Validate() error {
	if m.Base <= 0 {
		return fmt.Errorf("fib: model base duration must be positive, got %v", m.Base)
	}
	if m.BaseN < 1 {
		return fmt.Errorf("fib: model base N must be >= 1, got %d", m.BaseN)
	}
	return nil
}

// Calibrate measures the real kernel for every N in [lo, hi] with reps
// repetitions and returns the averaged durations. This is the §V-B
// calibration loop ("run fib with N=36..46 for 100 repetitions"); callers
// in tests use tiny N/reps to keep runtimes bounded.
func Calibrate(lo, hi, reps int) (map[int]time.Duration, error) {
	if lo < 1 || hi < lo || reps < 1 {
		return nil, fmt.Errorf("fib: invalid calibration range [%d,%d] x%d", lo, hi, reps)
	}
	out := make(map[int]time.Duration, hi-lo+1)
	for n := lo; n <= hi; n++ {
		var total time.Duration
		for r := 0; r < reps; r++ {
			_, d := Measure(n)
			total += d
		}
		out[n] = total / time.Duration(reps)
	}
	return out, nil
}
