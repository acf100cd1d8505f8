package metrics

import (
	"math"
	"sort"
	"testing"

	"github.com/faassched/faassched/internal/stats"
)

// observedBucket returns the bucket Observe puts v in on layout l.
func observedBucket(l *stats.Layout, v float64) int {
	h := l.NewHistogram()
	h.Observe(v)
	for i, c := range h.Counts() {
		if c == 1 {
			return i
		}
	}
	return -1
}

// fuzzEdges builds up to n+1 strictly ascending edges from first, each the
// previous one grown by step (added, or multiplied when geometric). It
// stops early once a step no longer ascends, or after an edge of +Inf.
func fuzzEdges(first, step float64, n uint8, geometric bool) []float64 {
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
		if !(next > e) {
			break
		}
		edges = append(edges, next)
		if math.IsInf(next, 1) {
			break
		}
	}
	return edges
}

// FuzzHistogramObserve: for any float64, Observe's bucket equals
// sort.SearchFloat64s over the edges, on the accumulators' shared layout
// and on arbitrary edges — including a non-positive first edge, where no
// lookup table is built. The seed corpus is every accumulator edge and
// its two float64 neighbours.
//
//	go test -run '^$' -fuzz FuzzHistogramObserve -fuzztime 15s ./internal/metrics
func FuzzHistogramObserve(f *testing.F) {
	if accLayout.TableBits() < 0 {
		f.Fatal("the accumulator layout has no lookup table")
	}
	for _, e := range accLayout.Edges() {
		for _, v := range []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1))} {
			f.Add(v, e, 1.05, uint8(64), true)
		}
	}
	// A NaN whose bits sit just above +Inf's must not reach a table
	// whose top edge is +Inf.
	lowNaN := math.Float64frombits(0x7ff0000000000001)
	for _, v := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), lowNaN, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64} {
		f.Add(v, -3.0, 0.5, uint8(20), false)
		f.Add(v, math.SmallestNonzeroFloat64, 2.0, uint8(255), true)
		f.Add(v, 1.0, 1e300, uint8(3), true)
	}
	f.Fuzz(func(t *testing.T, v, first, step float64, n uint8, geometric bool) {
		acc := accLayout.Edges()
		if got, want := observedBucket(accLayout, v), sort.SearchFloat64s(acc, v); got != want {
			t.Fatalf("accumulator layout: Observe(%v) bucket %d, want %d", v, got, want)
		}
		edges := fuzzEdges(first, step, n, geometric)
		l := stats.NewLayout(edges)
		if edges[0] <= 0 && l.TableBits() >= 0 {
			t.Fatalf("layout with first edge %v built a table", edges[0])
		}
		if got, want := observedBucket(l, v), sort.SearchFloat64s(edges, v); got != want {
			t.Fatalf("edges %v (table bits %d): Observe(%v) bucket %d, want %d", edges, l.TableBits(), v, got, want)
		}
	})
}
