package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrNoSamples {
		t.Fatalf("NewCDF(nil) err = %v, want ErrNoSamples", err)
	}
}

// TestCDFTakesOwnership: NewCDF sorts the slice it is handed in place
// and keeps it rather than copying it, while Percentile, which takes a
// slice it does not own, leaves its input as it was.
func TestCDFTakesOwnership(t *testing.T) {
	in := []float64{3, 1, 2}
	c := MustCDF(in)
	if in[0] != 1 || in[1] != 2 || in[2] != 3 {
		t.Fatalf("input after NewCDF = %v, want it sorted in place", in)
	}
	in[2] = 99
	if got := c.Max(); got != 99 {
		t.Fatalf("Max = %v after writing the owned slice, want 99 (no copy)", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { c, _ = NewCDF(in) }); allocs != 0 {
		t.Errorf("NewCDF allocates %v times, want 0", allocs)
	}
	keep := []float64{5, 1, 9}
	if v, err := Percentile(keep, 0.5); err != nil || v != 5 {
		t.Fatalf("Percentile = %v, %v, want 5", v, err)
	}
	if keep[0] != 5 || keep[1] != 1 || keep[2] != 9 {
		t.Errorf("Percentile reordered its input: %v", keep)
	}
}

func TestCDFBasics(t *testing.T) {
	c := MustCDF([]float64{4, 1, 3, 2})
	if c.N() != 4 {
		t.Errorf("N = %d, want 4", c.N())
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min,Max = %v,%v want 1,4", c.Min(), c.Max())
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := c.Sum(); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
}

func TestCDFAt(t *testing.T) {
	c := MustCDF([]float64{1, 2, 2, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{1.5, 0.25},
		{2, 0.75},
		{3.9, 0.75},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	// 10 samples 1..10: nearest-rank pQ = ceil(q*10)-th sample.
	samples := make([]float64, 10)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	c := MustCDF(samples)
	tests := []struct {
		q    float64
		want float64
	}{
		{-1, 1},
		{0, 1},
		{0.05, 1},
		{0.10, 1},
		{0.25, 3},
		{0.50, 5},
		{0.90, 9},
		{0.99, 10},
		{1, 10},
		{2, 10},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

// Property: quantiles are monotone non-decreasing in q and bounded by
// [Min, Max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		c := MustCDF(samples)
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		qa, qb := c.Quantile(a), c.Quantile(b)
		return qa <= qb && qa >= c.Min() && qb <= c.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: At is monotone non-decreasing and hits 0 below min, 1 at max.
func TestAtMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		c := MustCDF(samples)
		xs := append([]float64{}, samples...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			cur := c.At(x)
			if cur < prev {
				return false
			}
			prev = cur
		}
		below := math.Nextafter(c.Min(), math.Inf(-1))
		return c.At(c.Max()) == 1 && c.At(below) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCurve(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := MustCDF(samples)
	pts := c.Curve(10)
	if len(pts) != 10 {
		t.Fatalf("len(Curve(10)) = %d, want 10", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 99 {
		t.Errorf("curve endpoints = %v..%v, want 0..99", pts[0].X, pts[len(pts)-1].X)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("curve not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	// Degenerate n handling.
	if got := len(c.Curve(1)); got != 2 {
		t.Errorf("Curve(1) has %d points, want 2", got)
	}
}

func TestKSDistance(t *testing.T) {
	a := MustCDF([]float64{1, 2, 3, 4, 5})
	if d := KSDistance(a, a); d != 0 {
		t.Errorf("KS(a,a) = %v, want 0", d)
	}
	b := MustCDF([]float64{101, 102, 103})
	if d := KSDistance(a, b); d != 1 {
		t.Errorf("KS(disjoint) = %v, want 1", d)
	}
	// Identical distributions from different sample draws should be close.
	rng := rand.New(rand.NewSource(7))
	s1 := make([]float64, 4000)
	s2 := make([]float64, 4000)
	for i := range s1 {
		s1[i] = rng.NormFloat64()
		s2[i] = rng.NormFloat64()
	}
	if d := KSDistance(MustCDF(s1), MustCDF(s2)); d > 0.08 {
		t.Errorf("KS(two normal draws) = %v, want small", d)
	}
}

func TestKSSymmetryProperty(t *testing.T) {
	f := func(raw1, raw2 []float64) bool {
		clean := func(raw []float64) []float64 {
			out := make([]float64, 0, len(raw))
			for _, v := range raw {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out = append(out, v)
				}
			}
			return out
		}
		s1, s2 := clean(raw1), clean(raw2)
		if len(s1) == 0 || len(s2) == 0 {
			return true
		}
		a, b := MustCDF(s1), MustCDF(s2)
		d1, d2 := KSDistance(a, b), KSDistance(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileHelper(t *testing.T) {
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("Percentile(nil) should fail")
	}
	v, err := Percentile([]float64{5, 1, 9}, 0.5)
	if err != nil || v != 5 {
		t.Errorf("Percentile = %v, %v; want 5, nil", v, err)
	}
}

func TestDescribe(t *testing.T) {
	got := MustCDF([]float64{1, 2, 3}).Describe()
	if got == "" {
		t.Fatal("Describe returned empty string")
	}
}
