package fib

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestComputeKnownValues(t *testing.T) {
	want := map[int]uint64{0: 0, 1: 1, 2: 1, 3: 2, 10: 55, 20: 6765, 30: 832040}
	for n, w := range want {
		if got := Compute(n); got != w {
			t.Errorf("Compute(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestMeasureReturnsPositiveDuration(t *testing.T) {
	v, d := Measure(20)
	if v != 6765 {
		t.Errorf("Measure value = %d, want 6765", v)
	}
	if d < 0 {
		t.Errorf("Measure duration = %v, want >= 0", d)
	}
}

func TestDefaultModelLadder(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Duration(MinN); got != 120*time.Millisecond {
		t.Errorf("Duration(36) = %v, want 120ms", got)
	}
	// Each step multiplies by φ ≈ 1.618.
	for n := MinN; n < MaxN; n++ {
		ratio := float64(m.Duration(n+1)) / float64(m.Duration(n))
		// Durations are integer nanoseconds, so allow truncation error.
		if math.Abs(ratio-Phi) > 1e-6 {
			t.Errorf("ratio at N=%d is %v, want φ", n, ratio)
		}
	}
	// fib(46) should land in the ~15s range that shapes the paper's tail.
	d46 := m.Duration(MaxN)
	if d46 < 12*time.Second || d46 > 18*time.Second {
		t.Errorf("Duration(46) = %v, want ~15s", d46)
	}
}

func TestTableCoversRange(t *testing.T) {
	tb := DefaultModel().Table()
	if len(tb) != MaxN-MinN+1 {
		t.Fatalf("table has %d entries, want %d", len(tb), MaxN-MinN+1)
	}
	for n := MinN; n <= MaxN; n++ {
		if tb[n] <= 0 {
			t.Errorf("table[%d] = %v", n, tb[n])
		}
	}
}

func TestNearestNRoundTrip(t *testing.T) {
	m := DefaultModel()
	for n := MinN; n <= MaxN; n++ {
		if got := m.NearestN(m.Duration(n)); got != n {
			t.Errorf("NearestN(Duration(%d)) = %d", n, got)
		}
	}
}

func TestNearestNClamping(t *testing.T) {
	m := DefaultModel()
	if got := m.NearestN(0); got != MinN {
		t.Errorf("NearestN(0) = %d, want %d", got, MinN)
	}
	if got := m.NearestN(time.Millisecond); got != MinN {
		t.Errorf("NearestN(1ms) = %d, want %d", got, MinN)
	}
	if got := m.NearestN(10 * time.Hour); got != MaxN {
		t.Errorf("NearestN(10h) = %d, want %d", got, MaxN)
	}
}

// Property: NearestN picks an argument whose modeled duration is within one
// φ step of the requested duration (for durations inside the ladder range).
func TestNearestNWithinOneStepProperty(t *testing.T) {
	m := DefaultModel()
	lo, hi := m.Duration(MinN), m.Duration(MaxN)
	f := func(raw uint32) bool {
		// Map raw into [lo, hi].
		span := float64(hi - lo)
		d := lo + time.Duration(float64(raw)/float64(math.MaxUint32)*span)
		n := m.NearestN(d)
		ratio := float64(d) / float64(m.Duration(n))
		return ratio > 1/Phi-1e-9 && ratio < Phi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	for _, m := range []DurationModel{
		{BaseN: 36, Base: 0},
		{BaseN: 36, Base: -time.Second},
		{BaseN: 0, Base: time.Second},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
}

func TestCalibrateSmall(t *testing.T) {
	got, err := Calibrate(5, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("calibrated %d entries, want 4", len(got))
	}
	for n := 5; n <= 8; n++ {
		if got[n] < 0 {
			t.Errorf("Calibrate[%d] = %v", n, got[n])
		}
	}
}

func TestCalibrateRejectsBadArgs(t *testing.T) {
	for _, args := range [][3]int{{0, 5, 1}, {5, 4, 1}, {5, 6, 0}} {
		if _, err := Calibrate(args[0], args[1], args[2]); err == nil {
			t.Errorf("Calibrate(%v) = nil error", args)
		}
	}
}

func BenchmarkComputeFib25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Compute(25)
	}
}

// TestLabel: the table and the formatted fallback agree with the
// "fib(n)" spelling on both sides of the table's bounds, and VMLabel
// prefixes the microVM index.
func TestLabel(t *testing.T) {
	for _, n := range []int{-1, 0, 1, MinN, MaxN, MaxN + 1, 1000} {
		if got, want := Label(n), fmt.Sprintf("fib(%d)", n); got != want {
			t.Errorf("Label(%d) = %q, want %q", n, got, want)
		}
		if got, want := VMLabel(7, n), fmt.Sprintf("vm7-fib(%d)", n); got != want {
			t.Errorf("VMLabel(7, %d) = %q, want %q", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = Label(MaxN) }); allocs != 0 {
		t.Errorf("Label(MaxN) allocates %v times, want 0 (table lookup)", allocs)
	}
}
