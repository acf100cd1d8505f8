package metrics

// Pins the failed-record accounting contract of DESIGN.md §14: failed
// invocations contribute NO latency sample (quantiles cover completed
// work only) but their Wasted CPU IS billed — killed attempts burned
// instance time before being discarded — and both the exact Set and the
// fixed-memory Accumulator must agree on every derived figure.

import (
	"math"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/pricing"
)

func faultRecords() (ok, bad Record) {
	ok = Record{
		ID: 1, Arrival: 0,
		FirstRun: 10 * time.Millisecond, Finish: 110 * time.Millisecond,
		CPU: 100 * time.Millisecond, MemMB: 128,
		Attempts: 2, Wasted: 40 * time.Millisecond,
	}
	bad = Record{
		ID: 2, MemMB: 512,
		Failed: true, GiveUp: true,
		Attempts: 3, Wasted: 250 * time.Millisecond,
	}
	return ok, bad
}

func TestFailedRecordBillingSet(t *testing.T) {
	tariff := pricing.Default()
	ok, bad := faultRecords()
	s := Set{Records: []Record{ok, bad}}

	if got := len(s.Completed()); got != 1 {
		t.Fatalf("Completed() = %d records, want 1", got)
	}
	// The failed record would contribute a zero-valued sample and drag
	// every quantile down if it leaked into the CDF.
	cdf, err := s.CDF(Response)
	if err != nil {
		t.Fatal(err)
	}
	if got := cdf.Quantile(0); got != 10 {
		t.Errorf("response min = %vms, want 10ms (failed record leaked into quantiles)", got)
	}

	// Cost: completed execution at its own memory (with the per-request
	// charge), PLUS both records' wasted CPU at compute rate only — the
	// give-up never completed but its killed attempts still billed.
	want := tariff.InvocationCost(ok.Execution(), int(ok.MemMB)) +
		tariff.ComputeCost(ok.Wasted, int(ok.MemMB)) +
		tariff.ComputeCost(bad.Wasted, int(bad.MemMB))
	if got := s.Cost(tariff); math.Abs(got-want) > 1e-15 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	wantUni := tariff.InvocationCost(ok.Execution(), 256) +
		tariff.ComputeCost(ok.Wasted, 256) +
		tariff.ComputeCost(bad.Wasted, 256)
	if got := s.CostAtUniformMemory(tariff, 256); math.Abs(got-wantUni) > 1e-15 {
		t.Errorf("CostAtUniformMemory = %v, want %v", got, wantUni)
	}

	if got := s.Goodput(); got != 0.5 {
		t.Errorf("Goodput = %v, want 0.5", got)
	}
	if got := s.RetryAmplification(); got != 2.5 {
		t.Errorf("RetryAmplification = %v, want 2.5 (attempts 2+3 over 2 records)", got)
	}
	if got := s.WastedCPU(); got != 290*time.Millisecond {
		t.Errorf("WastedCPU = %v, want 290ms", got)
	}
	if got := s.GiveUps(); got != 1 {
		t.Errorf("GiveUps = %d, want 1", got)
	}
}

func TestFailedRecordBillingAccumulator(t *testing.T) {
	tariff := pricing.Default()
	ok, bad := faultRecords()
	s := Set{Records: []Record{ok, bad}}
	acc := NewAccumulator(tariff)
	acc.Push(ok)
	acc.Push(bad)

	if acc.Completed() != 1 || acc.FailedCount() != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", acc.Completed(), acc.FailedCount())
	}
	// Same billing join as the exact Set, to the float bit.
	if got, want := acc.Cost(), s.Cost(tariff); math.Abs(got-want) > 1e-15 {
		t.Errorf("Accumulator.Cost = %v, Set.Cost = %v", got, want)
	}
	// The uniform rebill counts wasted CPU in billedMs like Set does.
	wantUni := s.CostAtUniformMemory(tariff, 256)
	if got := acc.CostAtUniformMemory(256); math.Abs(got-wantUni) > 1e-15 {
		t.Errorf("Accumulator.CostAtUniformMemory = %v, Set = %v", got, wantUni)
	}
	if got := acc.Goodput(); got != 0.5 {
		t.Errorf("Goodput = %v, want 0.5", got)
	}
	if got := acc.RetryAmplification(); got != 2.5 {
		t.Errorf("RetryAmplification = %v, want 2.5", got)
	}
	if got := acc.WastedCPU(); got != 290*time.Millisecond {
		t.Errorf("WastedCPU = %v, want 290ms", got)
	}
	if got := acc.GiveUps(); got != 1 {
		t.Errorf("GiveUps = %d, want 1", got)
	}
	// Quantiles: the single latency sample is the completed record's; the
	// failed record must not have observed a zero into the histogram.
	q, err := acc.Quantile(Response, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q < 5 || q > 20 {
		t.Errorf("response p50 ~ %vms, want ~10ms (failed record leaked into histogram)", q)
	}
	// Merge keeps the fault tallies.
	acc2 := NewAccumulator(tariff)
	if err := acc2.Merge(acc); err != nil {
		t.Fatal(err)
	}
	if acc2.GiveUps() != 1 || acc2.WastedCPU() != 290*time.Millisecond || acc2.RetryAmplification() != 2.5 {
		t.Errorf("merge lost fault tallies: giveups=%d wasted=%v amp=%v",
			acc2.GiveUps(), acc2.WastedCPU(), acc2.RetryAmplification())
	}
}
