package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Layout is a histogram's bucket geometry: ascending bucket upper bounds
// and, when the first bound is positive, a lookup table that takes a value
// straight to its bucket. A Layout never changes once built, so any number
// of histograms may share one; histograms on the same Layout merge without
// comparing edges.
//
// The table rests on positive float64s ordering like their bit patterns:
// bits>>shift keeps the exponent and the top mantissa bits, so it is a
// monotone cell key, and every value in a cell lies between two adjacent
// keys' smallest values. NewLayout picks the fewest mantissa bits that
// leave no two edges in one cell, so a value's bucket is the table's
// entry for its cell or the next one.
type Layout struct {
	edges []float64
	shift uint    // 52 − mantissa bits kept in the cell key
	base  uint64  // the first edge's cell key
	cells []int32 // cells[k]: edges below cell base+k; nil when there is no table
}

// Table bounds: keys keep at most maxCellBits mantissa bits, and a table
// never exceeds maxCells entries. Edges too dense or spread too wide for
// that get no table and Observe binary-searches.
const (
	maxCellBits = 12
	maxCells    = 1 << 16
)

// NewLayout copies edges, which must be strictly ascending, and builds
// their lookup table. It panics if edges is empty or not strictly
// ascending (programmer error).
func NewLayout(edges []float64) *Layout {
	if len(edges) == 0 {
		panic("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly ascending")
		}
	}
	l := &Layout{edges: append([]float64(nil), edges...)}
	// A finite last edge keeps every NaN and +Inf beyond the table's top
	// cell: their exponent field is all ones.
	if edges[0] > 0 && !math.IsInf(edges[len(edges)-1], 1) {
		for bits := uint(0); bits <= maxCellBits && l.cells == nil; bits++ {
			l.buildTable(52 - bits)
		}
	}
	return l
}

// buildTable fills the table for cell keys bits>>shift, unless two edges
// share a cell or the table would exceed maxCells.
func (l *Layout) buildTable(shift uint) {
	key := func(v float64) uint64 { return math.Float64bits(v) >> shift }
	for i := 1; i < len(l.edges); i++ {
		if key(l.edges[i]) == key(l.edges[i-1]) {
			return
		}
	}
	base, top := key(l.edges[0]), key(l.edges[len(l.edges)-1])
	if top-base >= maxCells {
		return
	}
	cells := make([]int32, top-base+1)
	for k := range cells {
		lo := math.Float64frombits((base + uint64(k)) << shift)
		cells[k] = int32(sort.SearchFloat64s(l.edges, lo))
	}
	l.shift, l.base, l.cells = shift, base, cells
}

// Bucket returns v's bucket: the index of the first edge >= v, or the
// number of edges when v exceeds them all (or is NaN) — exactly
// sort.SearchFloat64s over the edges. A value inside the table's range
// costs one table load and at most one comparison; anything else
// (non-positive values, NaN, values beyond the outer edges' cells, a
// layout without a table) takes the binary search.
func (l *Layout) Bucket(v float64) int {
	if i, ok := l.tableBucket(v); ok {
		return i
	}
	return sort.SearchFloat64s(l.edges, v)
}

// tableBucket is Bucket's table lookup: v's bucket and true when v lies
// inside the table's range. It makes no call, so it inlines into Observe
// and a value inside the table costs the histogram no call beyond
// Observe itself.
func (l *Layout) tableBucket(v float64) (int, bool) {
	if k := math.Float64bits(v)>>l.shift - l.base; k < uint64(len(l.cells)) {
		i := int(l.cells[k])
		if v > l.edges[i] {
			i++
		}
		return i, true
	}
	return 0, false
}

// Edges returns a copy of the bucket upper bounds.
func (l *Layout) Edges() []float64 { return append([]float64(nil), l.edges...) }

// TableBits reports how many mantissa bits the lookup table keys on, or
// -1 when the layout has no table.
func (l *Layout) TableBits() int {
	if l.cells == nil {
		return -1
	}
	return int(52 - l.shift)
}

// Histogram is a fixed-bucket histogram over float64 values. It is used by
// the trace generator's self-checks, by harness summaries and by the
// streaming accumulators.
//
// Counts live in pages of pageLen buckets: the page table is allocated at
// the first Observe or Merge and a page the first time one of its buckets
// is touched, so a histogram costs only the pages its values fall in. A
// nil page reads as all zeros. The streaming accumulators hold their
// histograms by value; copy a Histogram only while it is empty, since a
// copy would share its pages.
type Histogram struct {
	layout *Layout
	pages  []*[pageLen]int64
	total  int64
}

// pageLen buckets make a page: 64 keeps an accumulator histogram (513
// buckets, nine pages) to the few pages its values fall in without
// allocating a page per handful of buckets (DESIGN.md §7 has the sweep).
const (
	pageBits = 6
	pageLen  = 1 << pageBits
)

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. A final overflow bucket (> last edge) is added automatically.
// It panics if edges is empty or not strictly ascending (programmer error).
func NewHistogram(edges []float64) *Histogram { return NewLayout(edges).NewHistogram() }

// NewHistogram returns an empty histogram on layout l. It allocates no
// counts: pages come with the first values.
func (l *Layout) NewHistogram() *Histogram { return &Histogram{layout: l} }

// buckets is the number of buckets: one per edge plus the overflow bucket.
func (h *Histogram) buckets() int { return len(h.layout.edges) + 1 }

// page returns page p, allocating it (and the page table) if it does not
// exist yet.
func (h *Histogram) page(p int) *[pageLen]int64 {
	if h.pages == nil {
		h.pages = make([]*[pageLen]int64, (h.buckets()+pageLen-1)/pageLen)
	}
	if h.pages[p] == nil {
		h.pages[p] = new([pageLen]int64)
	}
	return h.pages[p]
}

// count returns bucket i's count.
func (h *Histogram) count(i int) int64 {
	if p := i >> pageBits; p < len(h.pages) && h.pages[p] != nil {
		return h.pages[p][i&(pageLen-1)]
	}
	return 0
}

// LogEdges returns n strictly ascending edges spaced logarithmically from
// lo to hi (both > 0). Handy for duration histograms spanning ms..minutes.
func LogEdges(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic("stats: LogEdges requires 0 < lo < hi and n >= 2")
	}
	edges := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := 0; i < n; i++ {
		edges[i] = v
		v *= ratio
	}
	edges[n-1] = hi
	return edges
}

// Observe adds one value to the bucket Layout.Bucket picks. Observe sits
// on the streaming accumulators' per-record hot path, which is why the
// layout carries a lookup table rather than searching its edges, and why
// a value inside the table whose page exists costs one page load and no
// further call; the page-table bounds check doubles as the test for an
// allocated table.
func (h *Histogram) Observe(v float64) {
	if i, ok := h.layout.tableBucket(v); ok {
		if p := uint(i) >> pageBits; p < uint(len(h.pages)) && h.pages[p] != nil {
			h.pages[p][i&(pageLen-1)]++
			h.total++
			return
		}
	}
	h.observeSlow(v)
}

// observeSlow is Observe for a value outside the table or a page not yet
// allocated.
func (h *Histogram) observeSlow(v float64) {
	i := h.layout.Bucket(v)
	h.page(i >> pageBits)[i&(pageLen-1)]++
	h.total++
}

// Reset zeroes every bucket. It keeps the pages, so a histogram that is
// reset and refilled with like values allocates nothing.
func (h *Histogram) Reset() {
	for _, pg := range h.pages {
		if pg != nil {
			clear(pg[:])
		}
	}
	h.total = 0
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Counts returns a copy of the per-bucket counts; the final entry is the
// overflow bucket.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, h.buckets())
	for p, pg := range h.pages {
		if pg != nil {
			copy(out[p*pageLen:], pg[:])
		}
	}
	return out
}

// Quantile estimates the q-th quantile (q in [0, 1]) from the bucket
// counts: it finds the bucket holding the target rank and interpolates
// geometrically between the bucket's bounds, which is exact for the
// log-spaced edges the streaming accumulators use (error bounded by one
// bucket's width ratio). Values in the underflow bucket report the first
// edge and values in the overflow bucket the last edge — the histogram
// cannot know tighter bounds there. Returns ErrNoSamples when empty.
// Missing pages are skipped: adding their zeros would not move the rank.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if h.total == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	edges := h.layout.edges
	last := len(edges)
	target := q * float64(h.total)
	var cum float64
	for p, pg := range h.pages {
		if pg == nil {
			continue
		}
		for j, c := range pg {
			next := cum + float64(c)
			if next >= target && c > 0 {
				i := p*pageLen + j
				if i == 0 {
					return edges[0], nil
				}
				if i == last {
					return edges[last-1], nil
				}
				lo, hi := edges[i-1], edges[i]
				frac := (target - cum) / float64(c)
				if lo <= 0 {
					return lo + (hi-lo)*frac, nil
				}
				return lo * math.Pow(hi/lo, frac), nil
			}
			cum = next
		}
	}
	return edges[last-1], nil
}

// Merge adds other's counts into h. The two histograms must share the
// same edges — checked by pointer when they share a Layout, edge by edge
// otherwise; merging is exact and commutative (integer addition), which
// is what gives per-server streaming sinks deterministic fleet merges.
// Only other's pages are visited, and h gains a page only where other
// has one.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.layout != other.layout {
		he, oe := h.layout.edges, other.layout.edges
		if len(he) != len(oe) {
			return fmt.Errorf("stats: merging histograms with %d vs %d edges", len(he), len(oe))
		}
		for i, e := range he {
			if e != oe[i] {
				return fmt.Errorf("stats: merging histograms with different edges at %d", i)
			}
		}
	}
	for p, src := range other.pages {
		if src == nil {
			continue
		}
		dst := h.page(p)
		for j, c := range src {
			dst[j] += c
		}
	}
	h.total += other.total
	return nil
}

// CumulativeAt returns the fraction of observations <= the i-th edge.
func (h *Histogram) CumulativeAt(i int) float64 {
	if h.total == 0 {
		return 0
	}
	var sum int64
	for j := 0; j <= i && j < h.buckets(); j++ {
		sum += h.count(j)
	}
	return float64(sum) / float64(h.total)
}

// String renders a compact text view, one bucket per line.
func (h *Histogram) String() string {
	var b strings.Builder
	edges := h.layout.edges
	for i, e := range edges {
		fmt.Fprintf(&b, "<=%-12.4g %8d (%.1f%%)\n", e, h.count(i), 100*h.CumulativeAt(i))
	}
	fmt.Fprintf(&b, "> %-12.4g %8d\n", edges[len(edges)-1], h.count(len(edges)))
	return b.String()
}
