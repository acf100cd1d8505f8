package workload

import (
	"fmt"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/fib"
)

// TestStreamMatchesBuild pins the tentpole equivalence at the source
// layer: the lazy minute-by-minute stream must yield exactly the slice
// Build materializes, element for element.
func TestStreamMatchesBuild(t *testing.T) {
	tr := testTrace(t, 4)
	b := Builder{}
	built, err := b.Build(tr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := b.Stream(tr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	streamed := Materialize(src)
	if len(streamed) != len(built) {
		t.Fatalf("streamed %d invocations, built %d", len(streamed), len(built))
	}
	for i := range built {
		if streamed[i] != built[i] {
			t.Fatalf("invocation %d differs: streamed %+v, built %+v", i, streamed[i], built[i])
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

// TestStreamStrictlyOrdered: Stream's (Arrival, FibN, MemMB) sort key is
// a strict total order over its output, which is what lets each minute
// sort unstably without changing the sequence. Minute starts put every
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
