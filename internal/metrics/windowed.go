// Windowed sinks: the whole-run Accumulator answers "what did this run
// cost", but the multi-hour diurnal experiments want "how did cost and
// p99 track the daily swing". WindowedAccumulator slices the completion
// stream into fixed-duration windows — each its own fixed-memory
// Accumulator — while keeping an exact whole-run roll-up, so the figure
// the 24 h horizon wants costs O(windows) extra memory, not O(records).
// The roll-up's histograms are never fed per record: every completed
// record lands in exactly one window, so their sum is the whole run's,
// and Total assembles it when read.

package metrics

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/pricing"
)

// WindowedAccumulator is a Sink that buckets every completed record into
// the fixed-duration window containing its completion instant (window i
// covers [i·width, (i+1)·width)) and additionally folds its counts and
// sums into a whole-run total. Completion time is the bucketing key
// because that is when the provider bills the invocation; failed records
// carry no timings and are counted in the total only.
//
// Like Accumulator it is not safe for concurrent use; fleet runs give
// each server its own windowed sink and Merge them afterwards in
// server-index order (the float cost totals sum in call order).
type WindowedAccumulator struct {
	tariff pricing.Tariff
	width  time.Duration
	// total holds the whole-run counts and sums, pushed and merged in
	// record order so the float cost keeps its summation order. Its
	// histograms stay empty until Total assembles them from the windows;
	// histsFresh says they still equal the windows' sum.
	total      *Accumulator
	histsFresh bool
	wins       []*Accumulator
}

// NewWindowedAccumulator returns an empty windowed sink billing at tariff
// with the given window width.
func NewWindowedAccumulator(t pricing.Tariff, width time.Duration) (*WindowedAccumulator, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: window width must be positive, got %v", width)
	}
	return &WindowedAccumulator{tariff: t, width: width, total: NewAccumulator(t)}, nil
}

// Width returns the window width.
func (w *WindowedAccumulator) Width() time.Duration { return w.width }

// Push implements Sink.
func (w *WindowedAccumulator) Push(r Record) {
	if !w.total.pushTotals(&r) {
		return
	}
	w.histsFresh = false
	i := int(r.Finish / w.width)
	for len(w.wins) <= i {
		w.wins = append(w.wins, NewAccumulator(w.tariff))
	}
	w.wins[i].push(&r)
}

// Windows returns how many windows have been opened: 1 + the index of the
// latest window that received a record (earlier windows may be empty), or
// the count forced by EnsureWindows, whichever is larger.
func (w *WindowedAccumulator) Windows() int { return len(w.wins) }

// EnsureWindows opens empty windows until at least n exist. Push only
// opens windows up to the last successful completion, so a run with an
// idle or all-failed tail would otherwise report fewer windows than its
// horizon and per-window tables would silently drop trailing rows; the
// experiments call EnsureWindows(ceil(horizon/width)) before rendering.
// Windows that already exist are untouched.
func (w *WindowedAccumulator) EnsureWindows(n int) {
	for len(w.wins) < n {
		w.wins = append(w.wins, NewAccumulator(w.tariff))
	}
}

// Window returns window i's accumulator. It is valid for i in
// [0, Windows()); empty windows hold zero-count accumulators.
func (w *WindowedAccumulator) Window(i int) *Accumulator { return w.wins[i] }

// Total returns the whole-run roll-up: every record pushed, regardless of
// window — identical to an Accumulator fed the same stream. Its
// histograms are the windows' histograms summed bucket by bucket, rebuilt
// here when a Push or Merge has run since the last call, so the returned
// accumulator reflects the sink as of this call; call Total again after
// further pushes. The caller must not modify it.
func (w *WindowedAccumulator) Total() *Accumulator {
	if w.histsFresh {
		return w.total
	}
	for i := range w.total.hists {
		h := &w.total.hists[i]
		h.Reset()
		for _, win := range w.wins {
			// Every histogram here is on accLayout, so Merge cannot fail.
			_ = h.Merge(&win.hists[i])
		}
	}
	w.histsFresh = true
	return w.total
}

// Merge folds other into w. Widths must match; windows merge pairwise
// (growing w as needed) and the totals' counts and sums merge, all
// exactly — counts and histogram buckets are integers, and the float cost
// totals sum in call order, so merging per-server sinks in server-index
// order is deterministic. The total's histograms follow from the merged
// windows at the next Total.
func (w *WindowedAccumulator) Merge(other *WindowedAccumulator) error {
	if other == nil {
		return nil
	}
	if other.width != w.width {
		return fmt.Errorf("metrics: merging windowed sinks of width %v into %v", other.width, w.width)
	}
	// Checked here, before any window mutates, so a mismatch cannot leave
	// w half-merged (the per-window Accumulator.Merge would also reject it,
	// but only after earlier windows had already been folded in).
	if other.tariff != w.tariff {
		return fmt.Errorf("metrics: merging windowed sinks with different tariffs (%+v into %+v)", other.tariff, w.tariff)
	}
	for len(w.wins) < len(other.wins) {
		w.wins = append(w.wins, NewAccumulator(w.tariff))
	}
	for i, acc := range other.wins {
		if err := w.wins[i].Merge(acc); err != nil {
			return err
		}
	}
	w.total.mergeTotals(other.total)
	w.histsFresh = false
	return nil
}
