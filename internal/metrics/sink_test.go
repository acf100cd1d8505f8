package metrics

import (
	"math"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/pricing"
)

// sinkRecords synthesizes a spread of completed + failed records.
func sinkRecords(n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		arrival := time.Duration(i) * time.Millisecond
		first := arrival + time.Duration(1+i%7)*time.Millisecond
		finish := first + time.Duration(2+(i*i)%900)*time.Millisecond
		r := Record{
			ID:          uint64(i + 1),
			Arrival:     arrival,
			FirstRun:    first,
			Finish:      finish,
			CPU:         finish - first,
			Preemptions: int32(i % 3),
			MemMB:       []int32{128, 256, 1024}[i%3],
		}
		if i%50 == 49 {
			r = Record{ID: r.ID, Failed: true}
		}
		out = append(out, r)
	}
	return out
}

// TestAccumulatorMatchesSet: the streaming accumulator must reproduce the
// exact Set's counts and tariff joins, and land histogram quantiles within
// the documented bucket tolerance.
func TestAccumulatorMatchesSet(t *testing.T) {
	tariff := pricing.Default()
	recs := sinkRecords(1000)

	set := Set{Records: recs}
	acc := NewAccumulator(tariff)
	for _, r := range recs {
		acc.Push(r)
	}

	if acc.Completed() != len(set.Completed()) {
		t.Errorf("completed %d != %d", acc.Completed(), len(set.Completed()))
	}
	if acc.FailedCount() != set.FailedCount() {
		t.Errorf("failed %d != %d", acc.FailedCount(), set.FailedCount())
	}
	if acc.TotalPreemptions() != set.TotalPreemptions() {
		t.Errorf("preemptions %d != %d", acc.TotalPreemptions(), set.TotalPreemptions())
	}
	if acc.TotalExecution() != set.TotalExecution() {
		t.Errorf("total exec %v != %v", acc.TotalExecution(), set.TotalExecution())
	}
	if got, want := acc.Cost(), set.Cost(tariff); got != want {
		t.Errorf("cost %v != %v (same push order must give identical float sums)", got, want)
	}
	if got, want := acc.CostAtUniformMemory(1024), set.CostAtUniformMemory(tariff, 1024); math.Abs(got-want) > want*1e-9 {
		t.Errorf("uniform cost %v != %v", got, want)
	}
	for _, m := range []Metric{Execution, Response, Turnaround} {
		c, err := set.CDF(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got, err := acc.Quantile(m, q)
			if err != nil {
				t.Fatal(err)
			}
			want := c.Quantile(q)
			if want > 0 && (got < want*0.85 || got > want*1.15) {
				t.Errorf("%s q%.2f = %.3fms, want within 15%% of %.3fms", m, q, got, want)
			}
		}
	}
	sp99, err := set.P99(Execution)
	if err != nil {
		t.Fatal(err)
	}
	ap99, err := acc.P99(Execution)
	if err != nil {
		t.Fatal(err)
	}
	if ap99 < sp99*0.85 || ap99 > sp99*1.15 {
		t.Errorf("P99 seconds %v vs exact %v", ap99, sp99)
	}
	if acc.Summary() == "" || acc.Summary() == "no completed records" {
		t.Error("summary empty")
	}
}

// TestAccumulatorMerge: merging two halves must equal one pass over the
// whole stream — the per-server fleet merge invariant.
func TestAccumulatorMerge(t *testing.T) {
	tariff := pricing.Default()
	recs := sinkRecords(600)
	whole := NewAccumulator(tariff)
	for _, r := range recs {
		whole.Push(r)
	}
	a, b := NewAccumulator(tariff), NewAccumulator(tariff)
	for i, r := range recs {
		if i < len(recs)/2 {
			a.Push(r)
		} else {
			b.Push(r)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Completed() != whole.Completed() || a.FailedCount() != whole.FailedCount() ||
		a.TotalPreemptions() != whole.TotalPreemptions() || a.TotalExecution() != whole.TotalExecution() {
		t.Error("merged counters differ from single-pass")
	}
	if math.Abs(a.Cost()-whole.Cost()) > whole.Cost()*1e-12 {
		t.Errorf("merged cost %v vs %v", a.Cost(), whole.Cost())
	}
	for _, q := range []float64{0.5, 0.99} {
		ga, _ := a.Quantile(Turnaround, q)
		gw, _ := whole.Quantile(Turnaround, q)
		if ga != gw {
			t.Errorf("merged quantile %v != single-pass %v (histogram merge is exact)", ga, gw)
		}
	}
	if _, err := NewAccumulator(tariff).Quantile(Execution, 0.5); err == nil {
		t.Error("empty accumulator quantile should error")
	}
	if _, err := whole.Quantile(Metric(9), 0.5); err == nil {
		t.Error("bad metric accepted")
	}
}

// TestAccumulatorMergeRejectsTariffMismatch: cost totals from different
// tariffs must not sum — the merge has to fail, and fail without mutating
// the receiver.
func TestAccumulatorMergeRejectsTariffMismatch(t *testing.T) {
	a := NewAccumulator(pricing.Default())
	other := pricing.Default()
	other.PerGBSecondUSD *= 2
	b := NewAccumulator(other)
	for i, r := range sinkRecords(40) {
		if i%2 == 0 {
			a.Push(r)
		} else {
			b.Push(r)
		}
	}
	before := a.Cost()
	completedBefore := a.Completed()
	if err := a.Merge(b); err == nil {
		t.Fatal("tariff-mismatched accumulator merge accepted")
	}
	if a.Cost() != before || a.Completed() != completedBefore {
		t.Error("failed merge mutated the receiver")
	}
	// Identical tariffs still merge.
	if err := a.Merge(NewAccumulator(pricing.Default())); err != nil {
		t.Errorf("same-tariff merge rejected: %v", err)
	}
}

// BenchmarkSinkPush times one record's push into each fleet sink, in ns
// per record. The stream is sinkRecords' mix (2% failed) spread over
// about ten 500 ms windows; it is pushed once before timing, so the windows
// exist and a steady-state push into a streaming sink must not allocate.
// The windowed-open row pays for opening windows instead: a fresh
// windowed sink every 64 records, whose finish instants spread over
// seven windows, so its B/op is what opening and filling those windows
// allocates, amortized over the records (an elastic fleet opens a sink
// per server and windows per sink).
// The exact sink writes each record into the slot of its ID in an array
// allocated up front, so its push allocates nothing; its row includes
// the array's allocation, amortized over the records it holds: about one
// Record per op.
func BenchmarkSinkPush(b *testing.B) {
	recs := sinkRecords(4096)
	for _, tc := range []struct {
		name string
		mk   func() (Sink, error)
	}{
		{"accumulator", func() (Sink, error) { return NewAccumulator(pricing.Default()), nil }},
		{"windowed", func() (Sink, error) { return NewWindowedAccumulator(pricing.Default(), 500*time.Millisecond) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sink, err := tc.mk()
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				sink.Push(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Push(recs[i%len(recs)])
			}
		})
	}
	b.Run("windowed-open", func(b *testing.B) {
		const perSink = 64
		open := recs[:perSink]
		var last time.Duration
		for _, r := range open {
			last = max(last, r.Finish)
		}
		width := last/7 + 1
		mk := func() *WindowedAccumulator {
			w, err := NewWindowedAccumulator(pricing.Default(), width)
			if err != nil {
				b.Fatal(err)
			}
			return w
		}
		probe := mk()
		for _, r := range open {
			probe.Push(r)
		}
		if probe.Windows() != 7 {
			b.Fatalf("%d records open %d windows, want 7", perSink, probe.Windows())
		}
		var w *WindowedAccumulator
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%perSink == 0 {
				w = mk()
			}
			w.Push(open[i%perSink])
		}
	})
	// Fresh slots every 64Ki records keep the row's memory bounded (about
	// 8 MB) whatever b.N is; each pushed record takes the next ID.
	b.Run("exact", func(b *testing.B) {
		const n = 1 << 16
		var w *SlotWriter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				slots := NewSlots(n)
				w = slots.View().Writer(0)
			}
			r := recs[i%len(recs)]
			r.ID = uint64(i%n + 1)
			w.Push(r)
		}
		if w.err != nil {
			b.Fatal(w.err)
		}
	})
}
