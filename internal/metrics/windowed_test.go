package metrics

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/faassched/faassched/internal/pricing"
)

// windowedRecord builds a completed record finishing at fin.
func windowedRecord(id uint64, fin time.Duration) Record {
	return Record{
		ID:       id,
		Arrival:  fin - 30*time.Millisecond,
		FirstRun: fin - 20*time.Millisecond,
		Finish:   fin,
		CPU:      20 * time.Millisecond,
		MemMB:    128,
	}
}

func TestWindowedAccumulatorBucketsByFinish(t *testing.T) {
	w, err := NewWindowedAccumulator(pricing.Default(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(windowedRecord(1, 100*time.Millisecond))
	w.Push(windowedRecord(2, 999*time.Millisecond))
	w.Push(windowedRecord(3, time.Second)) // boundary: belongs to window 1
	w.Push(windowedRecord(4, 3500*time.Millisecond))
	w.Push(Record{ID: 5, Failed: true}) // total-only

	if w.Windows() != 4 {
		t.Fatalf("windows = %d, want 4", w.Windows())
	}
	wantCounts := []int{2, 1, 0, 1}
	for i, want := range wantCounts {
		if got := w.Window(i).Completed(); got != want {
			t.Errorf("window %d completed = %d, want %d", i, got, want)
		}
	}
	if w.Total().Completed() != 4 || w.Total().FailedCount() != 1 {
		t.Errorf("total = %d completed, %d failed", w.Total().Completed(), w.Total().FailedCount())
	}
	if w.Window(1).FailedCount() != 0 {
		t.Error("failed record leaked into a window")
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean number of
// bytes f allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// sinkEscape keeps the sinks bytesPerRun measures on the heap.
var sinkEscape Sink

// TestEmptyWindowsAllocateNoPages: a window that no record reaches costs
// its Accumulator struct and no histogram counts. A sink whose first
// record lands in window 5 may allocate only five empty accumulators and
// the longer window list more than one whose record lands in window 0;
// with dense histograms each empty window cost 12.3 KB of counts, and a
// page table for each of its three histograms would cost 240 B.
func TestEmptyWindowsAllocateNoPages(t *testing.T) {
	tariff := pricing.Default()
	width := time.Second
	open := func(win int) uint64 {
		r := windowedRecord(1, time.Duration(win)*width+500*time.Millisecond)
		return bytesPerRun(50, func() {
			w, err := NewWindowedAccumulator(tariff, width)
			if err != nil {
				t.Fatal(err)
			}
			w.Push(r)
			sinkEscape = w
		})
	}
	first, sixth := open(0), open(5)
	// An allocation's size class is at most 64 B over its size here, and
	// the window list grows by append from one slot to eight: at most
	// 120 B of pointer slices beyond the one-slot list.
	empty := (uint64(unsafe.Sizeof(Accumulator{})) + 63) &^ 63
	if limit := 5*empty + 120; sixth > first+limit {
		t.Errorf("first record in window 5 allocates %d B, in window 0 %d B: %d B more, want at most %d (five %d-B empty accumulators and the window list)",
			sixth, first, sixth-first, limit, empty)
	}
}

// TestWindowedMatchesFlatAccumulator: the total roll-up must be identical
// to a plain Accumulator fed the same stream, and window contents must
// partition it.
func TestWindowedMatchesFlatAccumulator(t *testing.T) {
	tariff := pricing.Default()
	w, err := NewWindowedAccumulator(tariff, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewAccumulator(tariff)
	for i := 1; i <= 200; i++ {
		r := windowedRecord(uint64(i), time.Duration(i)*17*time.Millisecond)
		r.Preemptions = int32(i % 3)
		w.Push(r)
		flat.Push(r)
	}
	if w.Total().Completed() != flat.Completed() ||
		w.Total().TotalPreemptions() != flat.TotalPreemptions() ||
		w.Total().TotalExecution() != flat.TotalExecution() ||
		w.Total().Cost() != flat.Cost() {
		t.Error("total roll-up diverges from flat accumulator")
	}
	wq, err1 := w.Total().Quantile(Turnaround, 0.99)
	fq, err2 := flat.Quantile(Turnaround, 0.99)
	if err1 != nil || err2 != nil || wq != fq {
		t.Errorf("total quantile %v (%v) != flat %v (%v)", wq, err1, fq, err2)
	}
	n, cost := 0, 0.0
	for i := 0; i < w.Windows(); i++ {
		n += w.Window(i).Completed()
		cost += w.Window(i).Cost()
	}
	if n != flat.Completed() {
		t.Errorf("windows partition %d records, want %d", n, flat.Completed())
	}
	if d := cost - flat.Cost(); d > 1e-12 || d < -1e-12 {
		t.Errorf("window costs sum to %v, want %v", cost, flat.Cost())
	}
}

// TestWindowedMergeExact: pushing a stream through two sinks and merging
// must equal pushing it through one — the per-server fleet merge claim.
func TestWindowedMergeExact(t *testing.T) {
	tariff := pricing.Default()
	width := 250 * time.Millisecond
	one, _ := NewWindowedAccumulator(tariff, width)
	a, _ := NewWindowedAccumulator(tariff, width)
	b, _ := NewWindowedAccumulator(tariff, width)
	for i := 1; i <= 120; i++ {
		r := windowedRecord(uint64(i), time.Duration(i)*11*time.Millisecond)
		one.Push(r)
		if i%2 == 0 {
			a.Push(r)
		} else {
			b.Push(r)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Windows() != one.Windows() {
		t.Fatalf("merged windows %d, want %d", a.Windows(), one.Windows())
	}
	for i := 0; i < one.Windows(); i++ {
		if a.Window(i).Completed() != one.Window(i).Completed() {
			t.Errorf("window %d merged count %d, want %d", i, a.Window(i).Completed(), one.Window(i).Completed())
		}
		aq, _ := a.Window(i).Quantile(Execution, 0.5)
		oq, _ := one.Window(i).Quantile(Execution, 0.5)
		if a.Window(i).Completed() > 0 && aq != oq {
			t.Errorf("window %d merged p50 %v, want %v", i, aq, oq)
		}
	}
	if a.Total().Completed() != one.Total().Completed() {
		t.Errorf("merged total %d, want %d", a.Total().Completed(), one.Total().Completed())
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestWindowedValidation(t *testing.T) {
	if _, err := NewWindowedAccumulator(pricing.Default(), 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewWindowedAccumulator(pricing.Default(), -time.Second); err == nil {
		t.Error("negative width accepted")
	}
	a, _ := NewWindowedAccumulator(pricing.Default(), time.Second)
	b, _ := NewWindowedAccumulator(pricing.Default(), 2*time.Second)
	if err := a.Merge(b); err == nil {
		t.Error("width-mismatched merge accepted")
	}
	if a.Width() != time.Second {
		t.Errorf("width = %v", a.Width())
	}
}

// TestWindowedMergeRejectsTariffMismatch: the tariff check fires before
// any window merges, so a mismatch cannot leave the receiver half-merged.
func TestWindowedMergeRejectsTariffMismatch(t *testing.T) {
	a, _ := NewWindowedAccumulator(pricing.Default(), time.Second)
	other := pricing.Default()
	other.PerRequestUSD += 1e-7
	b, _ := NewWindowedAccumulator(other, time.Second)
	a.Push(windowedRecord(1, 100*time.Millisecond))
	b.Push(windowedRecord(2, 2500*time.Millisecond))
	if err := a.Merge(b); err == nil {
		t.Fatal("tariff-mismatched windowed merge accepted")
	}
	if a.Windows() != 1 || a.Total().Completed() != 1 {
		t.Error("failed merge mutated the receiver")
	}
}

// TestEnsureWindows: trailing empty windows appear in per-window tables —
// an idle or all-failed tail must not shorten the horizon.
func TestEnsureWindows(t *testing.T) {
	w, err := NewWindowedAccumulator(pricing.Default(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(windowedRecord(1, 1500*time.Millisecond)) // opens windows 0..1
	w.Push(Record{ID: 2, Failed: true})              // total-only, opens nothing
	if w.Windows() != 2 {
		t.Fatalf("windows before ensure = %d, want 2", w.Windows())
	}
	w.EnsureWindows(5)
	if w.Windows() != 5 {
		t.Fatalf("windows after ensure = %d, want 5", w.Windows())
	}
	for i := 2; i < 5; i++ {
		if w.Window(i).Completed() != 0 {
			t.Errorf("forced window %d not empty", i)
		}
	}
	if w.Window(1).Completed() != 1 {
		t.Error("existing window disturbed")
	}
	// Shrinking or re-ensuring is a no-op.
	w.EnsureWindows(3)
	if w.Windows() != 5 {
		t.Errorf("EnsureWindows shrank to %d", w.Windows())
	}
	// A later Push still lands in the right (pre-opened) window, and
	// merging a forced-empty sink is exact.
	w.Push(windowedRecord(3, 4200*time.Millisecond))
	if w.Window(4).Completed() != 1 {
		t.Error("push into pre-opened window lost")
	}
	b, _ := NewWindowedAccumulator(pricing.Default(), time.Second)
	b.EnsureWindows(7)
	if err := w.Merge(b); err != nil {
		t.Fatal(err)
	}
	if w.Windows() != 7 {
		t.Errorf("merge did not adopt forced windows: %d", w.Windows())
	}
}

// sameAccumulator fails t unless got equals want in every count and sum,
// every bucket of all three histograms, and the cost's bits.
func sameAccumulator(t *testing.T, what string, got, want *Accumulator) {
	t.Helper()
	type totals struct {
		completed, failed, preemptions, coldStarts, giveUps int
		totalExec, coldLatency, wasted                      time.Duration
		billedMs, attempts                                  int64
		cost                                                uint64
	}
	sum := func(a *Accumulator) totals {
		return totals{a.completed, a.failed, a.preemptions, a.coldStarts, a.giveUps,
			a.totalExec, a.coldLatency, a.wasted, a.billedMs, a.attempts, math.Float64bits(a.cost)}
	}
	if g, w := sum(got), sum(want); g != w {
		t.Errorf("%s: totals %+v, want %+v", what, g, w)
	}
	for i := range want.hists {
		g, w := got.hists[i].Counts(), want.hists[i].Counts()
		for b := range w {
			if g[b] != w[b] {
				t.Errorf("%s: %v histogram bucket %d = %d, want %d", what, Metric(i+1), b, g[b], w[b])
				break
			}
		}
	}
}

// windowedStream is sinkRecords with cold starts, retries, wasted CPU and
// give-ups mixed in, so every total the roll-up keeps moves.
func windowedStream(n int) []Record {
	recs := sinkRecords(n)
	for i := range recs {
		switch {
		case recs[i].Failed && i%100 == 99:
			recs[i].GiveUp, recs[i].Attempts, recs[i].Wasted = true, 3, 40*time.Millisecond
		case i%7 == 3:
			recs[i].ColdStart, recs[i].Attempts, recs[i].Wasted = 250*time.Millisecond, 2, 5*time.Millisecond
		}
	}
	return recs
}

// TestWindowedTotalEqualsAccumulator: the roll-up's histograms are
// assembled from the windows when Total is read, so nothing may be
// counted twice — not on a second read, not after a Push that follows a
// read, not after merging sinks whose totals were read, and not because
// EnsureWindows opened empty windows.
func TestWindowedTotalEqualsAccumulator(t *testing.T) {
	tariff := pricing.Default()
	width := 100 * time.Millisecond
	recs := windowedStream(1200)
	half := len(recs) / 2
	feed := func(rs []Record) (*WindowedAccumulator, *Accumulator) {
		w, err := NewWindowedAccumulator(tariff, width)
		if err != nil {
			t.Fatal(err)
		}
		flat := NewAccumulator(tariff)
		for _, r := range rs {
			w.Push(r)
			flat.Push(r)
		}
		return w, flat
	}

	w, flat := feed(recs)
	sameAccumulator(t, "whole stream", w.Total(), flat)
	sameAccumulator(t, "second read", w.Total(), flat)

	w, flat = feed(recs[:half])
	sameAccumulator(t, "first half", w.Total(), flat)
	for _, r := range recs[half:] {
		w.Push(r)
		flat.Push(r)
	}
	sameAccumulator(t, "push after read", w.Total(), flat)

	a, flatA := feed(recs[:half])
	b, flatB := feed(recs[half:])
	a.Total()
	b.Total()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := flatA.Merge(flatB); err != nil {
		t.Fatal(err)
	}
	sameAccumulator(t, "merge of read sinks", a.Total(), flatA)
	sameAccumulator(t, "merged sink's source", b.Total(), flatB)

	w, flat = feed(recs)
	w.Total()
	w.EnsureWindows(w.Windows() + 5)
	sameAccumulator(t, "ensured windows", w.Total(), flat)
	e, err := NewWindowedAccumulator(tariff, width)
	if err != nil {
		t.Fatal(err)
	}
	e.EnsureWindows(3)
	sameAccumulator(t, "empty ensured sink", e.Total(), NewAccumulator(tariff))
	if err := w.Merge(e); err != nil {
		t.Fatal(err)
	}
	sameAccumulator(t, "merge of an empty sink", w.Total(), flat)
}
