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

// denseHist is the reference FuzzHistogramPages checks the paged
// histogram against: one int64 per bucket, found by sort.SearchFloat64s,
// and Quantile and CumulativeAt as they read over dense counts. touched
// marks the pages a value has reached, directly or through a merge.
type denseHist struct {
	edges   []float64
	counts  []int64
	total   int64
	touched []bool
}

func newDenseHist(edges []float64) *denseHist {
	n := len(edges) + 1
	return &denseHist{edges: edges, counts: make([]int64, n), touched: make([]bool, (n+pageLen-1)/pageLen)}
}

func (d *denseHist) observe(v float64) {
	i := sort.SearchFloat64s(d.edges, v)
	d.counts[i]++
	d.total++
	d.touched[i/pageLen] = true
}

func (d *denseHist) merge(o *denseHist) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	for p, t := range o.touched {
		d.touched[p] = d.touched[p] || t
	}
	d.total += o.total
}

func (d *denseHist) reset() {
	clear(d.counts)
	d.total = 0
}

func (d *denseHist) quantile(q float64) (float64, error) {
	if d.total == 0 {
		return 0, ErrNoSamples
	}
	q = math.Max(0, math.Min(1, q))
	target := q * float64(d.total)
	var cum float64
	for i, c := range d.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i == 0 {
				return d.edges[0], nil
			}
			if i == len(d.counts)-1 {
				return d.edges[len(d.edges)-1], nil
			}
			lo, hi := d.edges[i-1], d.edges[i]
			frac := (target - cum) / float64(c)
			if lo <= 0 {
				return lo + (hi-lo)*frac, nil
			}
			return lo * math.Pow(hi/lo, frac), nil
		}
		cum = next
	}
	return d.edges[len(d.edges)-1], nil
}

func (d *denseHist) cumulativeAt(i int) float64 {
	if d.total == 0 {
		return 0
	}
	var sum int64
	for j := 0; j <= i && j < len(d.counts); j++ {
		sum += d.counts[j]
	}
	return float64(sum) / float64(d.total)
}

// probeValue maps x to a value near the edges: an edge, its float64
// neighbours or a point between it and the next edge, or, past the last
// edge, a value outside every lookup table.
func probeValue(edges []float64, x uint16) float64 {
	i := int(x>>2) % (len(edges) + 1)
	if i == len(edges) {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, math.MaxFloat64,
			math.Float64frombits(0x7ff0000000000001)}
		return specials[int(x>>2)%len(specials)]
	}
	e := edges[i]
	switch x & 3 {
	case 0:
		return e
	case 1:
		return math.Nextafter(e, math.Inf(1))
	case 2:
		return math.Nextafter(e, math.Inf(-1))
	}
	if i+1 < len(edges) {
		return e + (edges[i+1]-e)/2
	}
	return e * 1.5
}

// pagedEdges builds up to n+1 strictly ascending edges from first, each
// the previous one grown by step (added, or multiplied when geometric),
// stopping once a step no longer ascends or reaches +Inf.
func pagedEdges(first, step float64, n uint8, geometric bool) []float64 {
	if math.IsNaN(first) || math.IsInf(first, 0) {
		first = 1
	}
	edges := []float64{first}
	for i := 0; i < int(n); i++ {
		e := edges[len(edges)-1]
		next := e + step
		if geometric {
			next = e * step
		}
		if !(next > e) || math.IsInf(next, 1) {
			break
		}
		edges = append(edges, next)
	}
	return edges
}

// FuzzHistogramPages: a paged histogram answers exactly as dense counts
// do, through any sequence of Observe, Merge and Reset on two histograms,
// on the accumulators' layout (513 buckets, nine pages) or on arbitrary
// edges: Counts, Total, Quantile at several q and CumulativeAt, compared
// bit for bit. It also pins the allocation rule: a histogram holds a page
// exactly where a value has reached it, directly or by a merge, and no
// page table until then. Each op takes three bytes: the op and which
// histogram in the first, a probe value (probeValue) in the other two.
//
//	go test -run '^$' -fuzz FuzzHistogramPages -fuzztime 15s ./internal/stats
func FuzzHistogramPages(f *testing.F) {
	// One value per accumulator edge (and the specials past the last),
	// alternating between the histograms, then merges both ways and
	// resets.
	every := make([]byte, 0, 3*520)
	for i := 0; i < 520; i++ {
		x := uint16(i<<2) | uint16(i%4)
		every = append(every, byte(i%2)<<7, byte(x), byte(x>>8))
	}
	every = append(every, 2, 0, 0, 0x83, 0, 0, 0x82, 0, 0, 3, 0, 0)
	f.Add(every, true, 1.0, 1.0, uint8(0), false)
	f.Add([]byte{0, 0, 0, 0x81, 4, 0, 0x82, 0, 0, 3, 0, 0, 2, 0, 0}, true, 1.0, 1.0, uint8(0), false)
	// A merge that brings a page the receiver lacks: edge 300 is on page 4.
	f.Add([]byte{0, 0, 0, 0x81, 0xb0, 0x04, 2, 0, 0}, true, 1.0, 1.0, uint8(0), false)
	// Layouts of 2, 64, 65 and 66 buckets (one page exactly full, one
	// bucket over) and 201, with and without a lookup table.
	for _, n := range []uint8{0, 62, 63, 64, 200} {
		f.Add(every[:3*210], false, -3.0, 0.5, n, false)
		f.Add(every[:3*210], false, 1e-3, 1.07, n, true)
	}
	qs := []float64{-1, 0, 1e-9, 0.01, 0.25, 0.5, 0.9, 0.99, 1, 2}
	f.Fuzz(func(t *testing.T, ops []byte, acc bool, first, step float64, n uint8, geometric bool) {
		edges := LogEdges(1e-3, 8.64e7, 512)
		if !acc {
			edges = pagedEdges(first, step, n, geometric)
		}
		l := NewLayout(edges)
		hs := [2]*Histogram{l.NewHistogram(), l.NewHistogram()}
		refs := [2]*denseHist{newDenseHist(edges), newDenseHist(edges)}
		// pages checks the allocation rule and the total, cheap enough
		// for every op; answers checks every reading, after each merge
		// and reset and at the end.
		pages := func(w int) {
			h, ref := hs[w], refs[w]
			if h.Total() != ref.total {
				t.Fatalf("histogram %d: Total %d, want %d", w, h.Total(), ref.total)
			}
			anyPage := false
			for p, touched := range ref.touched {
				anyPage = anyPage || touched
				if has := p < len(h.pages) && h.pages[p] != nil; has != touched {
					t.Fatalf("histogram %d: page %d allocated %v, touched %v", w, p, has, touched)
				}
			}
			if (h.pages != nil) != anyPage {
				t.Fatalf("histogram %d: page table allocated %v with pages touched %v", w, h.pages != nil, anyPage)
			}
		}
		answers := func(w int) {
			h, ref := hs[w], refs[w]
			got := h.Counts()
			if len(got) != len(ref.counts) {
				t.Fatalf("histogram %d: %d buckets, want %d", w, len(got), len(ref.counts))
			}
			for i, c := range ref.counts {
				if got[i] != c {
					t.Fatalf("histogram %d: bucket %d = %d, want %d", w, i, got[i], c)
				}
			}
			for _, q := range qs {
				g, gerr := h.Quantile(q)
				want, werr := ref.quantile(q)
				if gerr != werr || math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("histogram %d: Quantile(%v) = %v, %v; want %v, %v", w, q, g, gerr, want, werr)
				}
			}
			for _, i := range []int{-1, 0, len(edges) / 2, len(edges) - 1, len(edges), len(edges) + 3} {
				if g, want := h.CumulativeAt(i), ref.cumulativeAt(i); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("histogram %d: CumulativeAt(%d) = %v, want %v", w, i, g, want)
				}
			}
		}
		if len(ops) > 3*1024 {
			ops = ops[:3*1024]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			w := int(ops[0] >> 7)
			switch ops[0] & 3 {
			case 0, 1:
				v := probeValue(edges, uint16(ops[1])|uint16(ops[2])<<8)
				hs[w].Observe(v)
				refs[w].observe(v)
			case 2:
				if err := hs[w].Merge(hs[1-w]); err != nil {
					t.Fatal(err)
				}
				refs[w].merge(refs[1-w])
				answers(w)
			case 3:
				hs[w].Reset()
				refs[w].reset()
				answers(w)
			}
			pages(w)
		}
		answers(0)
		answers(1)
	})
}
