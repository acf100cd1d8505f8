package workload

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/trace"
)

// oracleStream is an independent reference for Builder.Stream, written
// the way §V-B describes the workload: bucket the clean rows by (fibN,
// memMB), then for every minute generate each bucket's evenly spaced
// arrivals and sort the whole minute.
func oracleStream(tr *trace.Trace, b Builder, startMinute, minutes int) []Invocation {
	b = b.withDefaults()
	counts := map[bucketKey][]int{}
	for _, row := range tr.Rows {
		if row.AvgDuration <= 0 || row.AvgDuration > trace.MaxSaneDuration {
			continue
		}
		key := bucketKey{fibN: b.Model.NearestN(row.AvgDuration), memMB: row.MemMB}
		if counts[key] == nil {
			counts[key] = make([]int, minutes)
		}
		for m := range minutes {
			counts[key][m] += row.Counts[startMinute+m]
		}
	}
	keys := slices.SortedFunc(maps.Keys(counts), func(x, y bucketKey) int {
		return cmp.Or(cmp.Compare(x.fibN, y.fibN), cmp.Compare(x.memMB, y.memMB))
	})
	var out []Invocation
	for m := range minutes {
		var minute []Invocation
		for i, key := range keys {
			k := counts[key][m] / b.Downscale
			for j := range k {
				minute = append(minute, Invocation{
					Arrival:  time.Duration(m)*time.Minute + time.Duration(j)*(time.Minute/time.Duration(k)),
					FibN:     key.fibN,
					Duration: b.Model.Duration(key.fibN),
					MemMB:    key.memMB,
					FuncID:   i + 1,
				})
			}
		}
		slices.SortFunc(minute, compareInvocations)
		out = append(out, minute...)
	}
	return out
}

// compareInvocations orders invocations by (Arrival, FibN, MemMB), the
// order §V-B sorts each minute in.
func compareInvocations(a, b Invocation) int {
	return cmp.Or(
		cmp.Compare(a.Arrival, b.Arrival),
		cmp.Compare(a.FibN, b.FibN),
		cmp.Compare(a.MemMB, b.MemMB),
	)
}

// edgeTrace is a hand-built trace for the source's edge cases: minute 2
// is empty, several buckets hold a single arrival in some minute, two
// rows merge into one bucket, two buckets share a FibN and differ only in
// MemMB, and a garbage row must be cleaned away. At Downscale 3 the
// counts of 1 and 2 round down to nothing and 3..5 to one arrival.
func edgeTrace(t *testing.T) *trace.Trace {
	t.Helper()
	model := fib.DefaultModel()
	d := model.Duration
	return &trace.Trace{Minutes: 5, Rows: []trace.FunctionRow{
		{ID: 1, AvgDuration: d(30), MemMB: 128, Counts: []int{1, 7, 0, 3, 60}},
		{ID: 2, AvgDuration: d(30), MemMB: 256, Counts: []int{1, 1, 0, 0, 4}},
		{ID: 3, AvgDuration: d(30), MemMB: 128, Counts: []int{2, 0, 0, 2, 1}}, // merges with row 1
		{ID: 4, AvgDuration: d(25), MemMB: 512, Counts: []int{0, 5, 0, 1, 9}},
		{ID: 5, AvgDuration: -time.Second, MemMB: 128, Counts: []int{9, 9, 9, 9, 9}}, // garbage
		{ID: 6, AvgDuration: d(38), MemMB: 128, Counts: []int{3, 2, 0, 13, 1}},
	}}
}

// TestStreamMatchesOracle pins Stream's output to the sort-each-minute
// reference, invocation for invocation, on the calibrated trace and on
// the edge-case trace, at Downscale 1 and 3 and from a nonzero start
// minute.
func TestStreamMatchesOracle(t *testing.T) {
	// The calibrated trace at RateScale 1: the volume Downscale 1 replays
	// in production, ~6,200 invocations a minute over ~60 buckets.
	cfg := trace.DefaultConfig()
	cfg.Minutes = 4
	cfg.RateScale = 1
	calibrated, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		tr            *trace.Trace
		start, minute int
	}{
		{"calibrated", calibrated, 1, 3},
		{"edges", edgeTrace(t), 0, 5},
		{"edges-from-empty-minute", edgeTrace(t), 2, 3},
	}
	for _, c := range cases {
		for _, ds := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/downscale%d", c.name, ds), func(t *testing.T) {
				b := Builder{Downscale: ds}
				want := oracleStream(c.tr, b, c.start, c.minute)
				src, err := b.Stream(c.tr, c.start, c.minute)
				if err != nil {
					t.Fatal(err)
				}
				got := Materialize(src)
				if len(got) != len(want) {
					t.Fatalf("streamed %d invocations, oracle %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("invocation %d: streamed %+v, oracle %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestStreamEarlyStopMidMinute: a consumer that stops inside a minute
// gets exactly the oracle's prefix, and the stream yields nothing more.
func TestStreamEarlyStopMidMinute(t *testing.T) {
	tr := edgeTrace(t)
	b := Builder{Downscale: 1}
	want := oracleStream(tr, b, 0, 5)
	// Minute 4 starts after the first three minutes' arrivals; stop a few
	// invocations into it, where several runs are still being merged.
	stop := 0
	for stop < len(want) && want[stop].Arrival < 4*time.Minute {
		stop++
	}
	stop += 5
	src, err := b.Stream(tr, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []Invocation
	src(func(inv Invocation) bool {
		got = append(got, inv)
		return len(got) < stop
	})
	if len(got) != stop {
		t.Fatalf("yielded %d invocations, want %d", len(got), stop)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("invocation %d: streamed %+v, oracle %+v", i, got[i], want[i])
		}
	}
}

// TestSourceSliceRoundTrip: source → slice → source yields identical
// invocations, and a Source is restartable (two passes agree).
func TestSourceSliceRoundTrip(t *testing.T) {
	tr := testTrace(t, 2)
	src, err := Builder{}.Stream(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := Materialize(src)
	second := Materialize(SliceSource(first))
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("round trip sizes: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("round trip diverges at %d", i)
		}
	}
	// Restartability: a second pass over the same Stream must agree.
	again := Materialize(src)
	if len(again) != len(first) {
		t.Fatalf("second pass yields %d, first %d", len(again), len(first))
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("second pass diverges at %d", i)
		}
	}
}

// TestSourceEarlyStop: a consumer breaking out of the range must stop the
// producer without yielding further invocations.
func TestSourceEarlyStop(t *testing.T) {
	tr := testTrace(t, 2)
	src, err := Builder{}.Stream(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	src(func(Invocation) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("yielded %d invocations after early stop, want 10", n)
	}
}

func TestStreamValidation(t *testing.T) {
	tr := testTrace(t, 2)
	if _, err := (Builder{Downscale: -1}).Stream(tr, 0, 1); err == nil {
		t.Error("negative downscale accepted")
	}
	if _, err := (Builder{}).Stream(tr, 0, 5); err == nil {
		t.Error("window beyond trace accepted")
	}
	if _, err := (Builder{}).Stream(tr, -1, 1); err == nil {
		t.Error("negative start accepted")
	}
}

// TestTakeNInvariants: truncation keeps the exact count and the original
// prefix in arrival order; degenerate n >= len returns the input as-is.
func TestTakeNInvariants(t *testing.T) {
	tr := testTrace(t, 2)
	invs, err := Builder{}.Build(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(invs) / 3
	got := TakeN(invs, n)
	if len(got) != n {
		t.Fatalf("TakeN count = %d, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != invs[i] {
			t.Fatalf("TakeN reordered element %d", i)
		}
	}
	if out := TakeN(invs, len(invs)); len(out) != len(invs) {
		t.Errorf("TakeN(n == len) = %d, want %d", len(out), len(invs))
	}
	if out := TakeN(invs, len(invs)+100); len(out) != len(invs) {
		t.Errorf("TakeN(n > len) = %d, want %d", len(out), len(invs))
	}
}

// TestSampleInvariants: stride sampling yields the exact requested count,
// preserves arrival order, draws only from the input, and keeps the
// arrival span (first element retained, last element near the end).
func TestSampleInvariants(t *testing.T) {
	tr := testTrace(t, 2)
	invs, err := Builder{}.Build(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 101
	got := Sample(invs, n)
	if len(got) != n {
		t.Fatalf("Sample count = %d, want %d", len(got), n)
	}
	if got[0] != invs[0] {
		t.Error("Sample dropped the first invocation")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Arrival < got[i-1].Arrival {
			t.Fatalf("Sample broke arrival order at %d", i)
		}
	}
	// Span preservation: the last sample must come from the final stride
	// of the input, not a truncated prefix.
	if span, full := got[len(got)-1].Arrival, invs[len(invs)-1].Arrival; span < full-full/time.Duration(n)*2 {
		t.Errorf("Sample compressed the arrival span: %v of %v", span, full)
	}
	// Degenerate cases return the input unchanged.
	if out := Sample(invs, len(invs)); len(out) != len(invs) {
		t.Errorf("Sample(n == len) = %d, want %d", len(out), len(invs))
	}
	if out := Sample(invs, 0); len(out) != len(invs) {
		t.Errorf("Sample(0) = %d, want input back", len(out))
	}
}

// TestTaskPoolReuse: a pooled task carries the invocation's fields and
// its bucket label, and a live task is refused by Put.
func TestTaskPoolReuse(t *testing.T) {
	p := NewTaskPool()
	inv := Invocation{Arrival: time.Second, FibN: 30, Duration: time.Millisecond, MemMB: 128}
	t1 := p.Get(inv, 1)
	if t1.Label != "fib(30)" || t1.Work != time.Millisecond {
		t.Fatalf("pool task fields wrong: %+v", t1)
	}
	if p.Put(t1) {
		t.Fatal("pool accepted a live task")
	}
	if t1.Label != FibLabel(30) {
		t.Errorf("pool label %q, want FibLabel(30) = %q", t1.Label, FibLabel(30))
	}
}

// TestFibLabel: the table and the formatted fallback agree with the
// "fib(n)" spelling on both sides of the table's bounds.
func TestFibLabel(t *testing.T) {
	for _, n := range []int{-1, 0, 1, fib.MinN, fib.MaxN, fib.MaxN + 1, 1000} {
		if got, want := FibLabel(n), fmt.Sprintf("fib(%d)", n); got != want {
			t.Errorf("FibLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestStreamStrictlyOrdered: Stream's (Arrival, FibN, MemMB) order is a
// strict total order over its output, which is what lets the per-minute
// merge reproduce the sorted minute exactly. Minute starts put every
// bucket's first arrival on the same instant, so the FibN/MemMB
// tiebreaks are exercised.
func TestStreamStrictlyOrdered(t *testing.T) {
	tr := testTrace(t, 4)
	src, err := Builder{}.Stream(tr, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	invs := Materialize(src)
	if len(invs) < 2 {
		t.Fatalf("stream too short: %d invocations", len(invs))
	}
	ties := 0
	for i := 1; i < len(invs); i++ {
		if compareInvocations(invs[i-1], invs[i]) >= 0 {
			t.Fatalf("invocation %d %+v does not follow %+v under the sort key", i, invs[i], invs[i-1])
		}
		if invs[i-1].Arrival == invs[i].Arrival {
			ties++
		}
	}
	if ties == 0 {
		t.Error("no same-instant arrivals; the tiebreak went untested")
	}
}
