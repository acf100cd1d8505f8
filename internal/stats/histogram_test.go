package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestHistogramPanics(t *testing.T) {
	for name, edges := range map[string][]float64{
		"empty":     nil,
		"unordered": {2, 1},
		"equal":     {1, 1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", edges)
				}
			}()
			NewHistogram(edges)
		})
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	counts := h.Counts()
	want := []int64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; >100: {500}
	if len(counts) != len(want) {
		t.Fatalf("len(counts) = %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
	if got := h.CumulativeAt(1); got != 0.6 {
		t.Errorf("CumulativeAt(1) = %v, want 0.6", got)
	}
	if !strings.Contains(h.String(), "<=") {
		t.Error("String output missing bucket markers")
	}
}

func TestLogEdges(t *testing.T) {
	edges := LogEdges(1, 1000, 4)
	if len(edges) != 4 {
		t.Fatalf("len = %d, want 4", len(edges))
	}
	if edges[0] != 1 || edges[3] != 1000 {
		t.Errorf("endpoints = %v, %v", edges[0], edges[3])
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not ascending: %v", edges)
		}
	}
	// Ratio should be constant (x10 per step here).
	r1 := edges[1] / edges[0]
	r2 := edges[2] / edges[1]
	if r1 < 9.9 || r1 > 10.1 || r2 < 9.9 || r2 > 10.1 {
		t.Errorf("ratios %v, %v not ~10", r1, r2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LogEdges with bad args did not panic")
		}
	}()
	LogEdges(0, 10, 3)
}

func TestHistogramEmptyCumulative(t *testing.T) {
	h := NewHistogram([]float64{1})
	if h.CumulativeAt(0) != 0 {
		t.Error("empty histogram cumulative should be 0")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(LogEdges(0.001, 1e6, 256))
	if _, err := h.Quantile(0.5); err == nil {
		t.Fatal("empty histogram quantile should error")
	}
	// 10k lognormal-ish spread values: quantile estimates must land within
	// one bucket ratio (~8.5% here) of the exact order statistics.
	vals := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		vals = append(vals, 0.5+float64(i)*float64(i)*0.001)
	}
	for _, v := range vals {
		h.Observe(v)
	}
	exact := func(q float64) float64 { return vals[int(q*float64(len(vals)-1))] }
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := exact(q)
		if got < want*0.90 || got > want*1.10 {
			t.Errorf("Quantile(%v) = %v, want within 10%% of %v", q, got, want)
		}
	}
	// Clamping and extremes stay inside the observed support.
	if v, _ := h.Quantile(-1); v > exact(0.01) {
		t.Errorf("Quantile(-1) = %v beyond low support", v)
	}
	if v, _ := h.Quantile(2); v < exact(0.99) {
		t.Errorf("Quantile(2) = %v below high support", v)
	}
}

func TestHistogramMerge(t *testing.T) {
	edges := LogEdges(1, 1000, 16)
	a, b := NewHistogram(edges), NewHistogram(edges)
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i * 10))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 200 {
		t.Fatalf("merged total = %d, want 200", a.Total())
	}
	whole := NewHistogram(edges)
	for i := 1; i <= 100; i++ {
		whole.Observe(float64(i))
		whole.Observe(float64(i * 10))
	}
	ac, wc := a.Counts(), whole.Counts()
	for i := range ac {
		if ac[i] != wc[i] {
			t.Fatalf("merged bucket %d = %d, want %d", i, ac[i], wc[i])
		}
	}
	if err := a.Merge(NewHistogram(LogEdges(1, 1000, 8))); err == nil {
		t.Fatal("merge with different edges accepted")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge errored: %v", err)
	}
}

// TestLayoutTable: a layout keys its table on the fewest mantissa bits
// that keep adjacent edges in separate cells, builds none
// for a non-positive first edge, an infinite last edge or edges too dense
// to separate, and
// buckets exactly like sort.SearchFloat64s either way.
func TestLayoutTable(t *testing.T) {
	lowNaN := math.Float64frombits(0x7ff0000000000001)
	probes := []float64{0, math.Copysign(0, -1), -1, math.NaN(), lowNaN, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	dense := []float64{1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)}
	for _, tc := range []struct {
		name  string
		edges []float64
		bits  int
	}{
		// Edges 2.5× apart sit in distinct binades: the exponent alone.
		{"coarse", LogEdges(1, 1e6, 16), 0},
		// The accumulators' layout: edges ~5% apart need 32 cells a binade.
		{"accumulator", LogEdges(1e-3, 8.64e7, 512), 5},
		{"non-positive first edge", []float64{-2, 0, 3, 50}, -1},
		{"too dense", dense, -1},
		// A +Inf edge would share its top cell with small-payload NaNs.
		{"infinite last edge", []float64{1, 1e300, math.Inf(1)}, -1},
	} {
		l := NewLayout(tc.edges)
		if got := l.TableBits(); got != tc.bits {
			t.Errorf("%s: table bits %d, want %d", tc.name, got, tc.bits)
		}
		vs := append([]float64(nil), probes...)
		for _, e := range tc.edges {
			vs = append(vs, math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1)), e*1.01)
		}
		for _, v := range vs {
			if got, want := l.Bucket(v), sort.SearchFloat64s(tc.edges, v); got != want {
				t.Errorf("%s: Bucket(%v) = %d, want %d", tc.name, v, got, want)
			}
		}
	}
}
