// Record sinks: the streaming dataflow retires every finished invocation
// through a Sink instead of holding it for an end-of-run Collect. The
// exact fleets' SlotWriter (slots.go) keeps every record, written into
// the slot of its ID. The fixed-memory Accumulator (long-horizon runs)
// keeps totals. So the choice of memory/fidelity trade-off is orthogonal
// to how the simulation is driven.

package metrics

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/chunk"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/stats"
)

// Sink consumes one Record per retired invocation, in completion order.
// Implementations are not safe for concurrent use; cluster runs give each
// server its own sink and merge afterwards.
type Sink interface {
	Push(Record)
}

// Store is a Sink that keeps one machine's records in completion order:
// an append-only record log in chunks that double from 16 to 1,024
// records, so a push never copies a record the store already holds.
// Fleets do not use it; their exact records go straight into the slot of
// their ID (Slots).
type Store = chunk.Log[Record]

// Accumulator histogram calibration: per-metric values in milliseconds on
// log-spaced buckets from 1 µs to 24 h. 512 buckets over ~10.9 decades
// puts adjacent edges ~5% apart, so interpolated quantiles carry at most
// a few percent of relative error — while the counts stay at most 12.3 KB
// (three histograms of 513 int64 buckets) no matter how many records
// stream through, and only the 64-bucket pages records touch are
// allocated.
const (
	accHistLoMs   = 1e-3
	accHistHiMs   = 8.64e7
	accHistBucket = 512
)

// accLayout is the one bucket layout every Accumulator histogram shares:
// built once, so a new accumulator (one per metric window per server or
// shard) allocates only the count pages its records touch, and merges
// check edges by pointer.
var accLayout = stats.NewLayout(stats.LogEdges(accHistLoMs, accHistHiMs, accHistBucket))

// Accumulator is the streaming Sink: fixed-bucket log-scale histograms
// per metric plus running cost/preemption/execution totals. It answers
// the same questions as a Set (quantiles, tariff joins, counts) in O(1)
// memory, which is what makes multi-hour diurnal windows runnable at all.
type Accumulator struct {
	tariff pricing.Tariff

	hists       [3]stats.Histogram // indexed by Metric - 1
	completed   int
	failed      int
	preemptions int
	totalExec   time.Duration
	billedMs    int64 // sum of per-invocation ceil-to-ms billed durations
	cost        float64
	coldStarts  int           // completed records that paid a cold start
	coldLatency time.Duration // summed cold-start latency across them
	attempts    int64         // summed admissions (zero Attempts counts as one)
	giveUps     int           // failed records abandoned after retries
	wasted      time.Duration // billed-but-discarded CPU across all records
}

// NewAccumulator returns an empty accumulator billing at tariff. Its
// histograms allocate nothing until records reach them.
func NewAccumulator(t pricing.Tariff) *Accumulator {
	a := &Accumulator{tariff: t}
	for i := range a.hists {
		a.hists[i] = *accLayout.NewHistogram()
	}
	return a
}

// Push implements Sink. Failed records contribute no latency sample but
// their Wasted CPU is billed, mirroring Set.Cost.
func (a *Accumulator) Push(r Record) { a.push(&r) }

// push is Push on a record the caller holds: the record is 80 bytes, so
// the windowed sink and the totals read it in place rather than copy it
// once per call.
func (a *Accumulator) push(r *Record) {
	if a.pushTotals(r) {
		a.hists[Execution-1].Observe(valueMs(r, Execution))
		a.hists[Response-1].Observe(valueMs(r, Response))
		a.hists[Turnaround-1].Observe(valueMs(r, Turnaround))
	}
}

// pushTotals folds r into every count and sum — everything Push does but
// the histograms — and reports whether r completed, i.e. carries latency
// samples.
func (a *Accumulator) pushTotals(r *Record) bool {
	a.preemptions += int(r.Preemptions)
	if n := r.Attempts; n >= 1 {
		a.attempts += int64(n)
	} else {
		a.attempts++
	}
	if r.Wasted > 0 {
		a.wasted += r.Wasted
		a.billedMs += pricing.BilledMilliseconds(r.Wasted)
		a.cost += a.tariff.ComputeCost(r.Wasted, int(r.MemMB))
	}
	if r.Failed {
		a.failed++
		if r.GiveUp {
			a.giveUps++
		}
		return false
	}
	a.completed++
	exec := r.Execution()
	a.totalExec += exec
	a.billedMs += pricing.BilledMilliseconds(exec)
	a.cost += a.tariff.InvocationCost(exec, int(r.MemMB))
	if r.Cold() {
		a.coldStarts++
		a.coldLatency += r.ColdStart
	}
	return true
}

// Completed returns the number of completed records seen.
func (a *Accumulator) Completed() int { return a.completed }

// FailedCount returns the number of failed records seen.
func (a *Accumulator) FailedCount() int { return a.failed }

// TotalPreemptions sums preemption counts across all records.
func (a *Accumulator) TotalPreemptions() int { return a.preemptions }

// TotalExecution sums execution time across completed records.
func (a *Accumulator) TotalExecution() time.Duration { return a.totalExec }

// ColdStarts counts completed records that paid a cold start.
func (a *Accumulator) ColdStarts() int { return a.coldStarts }

// WarmHits counts completed records served by a warm instance.
func (a *Accumulator) WarmHits() int { return a.completed - a.coldStarts }

// TotalColdStart sums the cold-start latency paid across completed
// records (already part of TotalExecution; broken out here).
func (a *Accumulator) TotalColdStart() time.Duration { return a.coldLatency }

// ColdStartRate is the fraction of completed records that paid a cold
// start (0 when nothing completed).
func (a *Accumulator) ColdStartRate() float64 {
	if a.completed == 0 {
		return 0
	}
	return float64(a.coldStarts) / float64(a.completed)
}

// WarmHitRatio is 1 − ColdStartRate (0 when nothing completed).
func (a *Accumulator) WarmHitRatio() float64 {
	if a.completed == 0 {
		return 0
	}
	return float64(a.completed-a.coldStarts) / float64(a.completed)
}

// Cost is the running tariff join: every completed record billed at its
// own memory size plus all Wasted CPU, same semantics as Set.Cost.
func (a *Accumulator) Cost() float64 { return a.cost }

// Goodput is the fraction of invocations that completed (1 when empty).
func (a *Accumulator) Goodput() float64 {
	n := a.completed + a.failed
	if n == 0 {
		return 1
	}
	return float64(a.completed) / float64(n)
}

// RetryAmplification is admissions per invocation (mean Attempts, where
// a zero field counts as one). 1.0 means no retries fired.
func (a *Accumulator) RetryAmplification() float64 {
	n := a.completed + a.failed
	if n == 0 {
		return 1
	}
	return float64(a.attempts) / float64(n)
}

// WastedCPU sums billed-but-discarded CPU across all records.
func (a *Accumulator) WastedCPU() time.Duration { return a.wasted }

// GiveUps counts invocations abandoned after exhausting retries.
func (a *Accumulator) GiveUps() int { return a.giveUps }

// CostAtUniformMemory rebills every completed record as if all functions
// had memMB — Set.CostAtUniformMemory's streaming analog, computed from
// the running billed-millisecond total.
func (a *Accumulator) CostAtUniformMemory(memMB int) float64 {
	return float64(a.billedMs)*a.tariff.PerMsUSD(memMB) +
		float64(a.completed)*a.tariff.PerRequestUSD
}

// Quantile estimates metric m's q-th quantile in milliseconds (the unit
// Set.CDF reports) from the log-bucket histogram.
func (a *Accumulator) Quantile(m Metric, q float64) (float64, error) {
	if m < Execution || m > Turnaround {
		return 0, fmt.Errorf("metrics: bad metric %v", m)
	}
	return a.hists[m-1].Quantile(q)
}

// P99 returns the 99th percentile of metric m in seconds, mirroring
// Set.P99.
func (a *Accumulator) P99(m Metric) (float64, error) {
	v, err := a.Quantile(m, 0.99)
	if err != nil {
		return 0, err
	}
	return v / 1000.0, nil
}

// Merge folds other into a. Counts and histograms merge exactly; the
// float cost total is summed in call order, so fleets merge per-server
// accumulators in server-index order to stay deterministic. The sinks
// must bill at the same tariff: summing cost totals across tariffs is
// meaningless, and CostAtUniformMemory would rebill other's billedMs at
// a's rate.
func (a *Accumulator) Merge(other *Accumulator) error {
	if other == nil {
		return nil
	}
	if other.tariff != a.tariff {
		return fmt.Errorf("metrics: merging accumulators with different tariffs (%+v into %+v)", other.tariff, a.tariff)
	}
	for i := range a.hists {
		if err := a.hists[i].Merge(&other.hists[i]); err != nil {
			return err
		}
	}
	a.mergeTotals(other)
	return nil
}

// mergeTotals folds other's counts and sums into a: everything Merge does
// but the histograms.
func (a *Accumulator) mergeTotals(other *Accumulator) {
	a.completed += other.completed
	a.failed += other.failed
	a.preemptions += other.preemptions
	a.totalExec += other.totalExec
	a.billedMs += other.billedMs
	a.cost += other.cost
	a.coldStarts += other.coldStarts
	a.coldLatency += other.coldLatency
	a.attempts += other.attempts
	a.giveUps += other.giveUps
	a.wasted += other.wasted
}

// Summary is the Set.Summary analog with approximate (histogram)
// quantiles.
func (a *Accumulator) Summary() string {
	if a.completed == 0 {
		return "no completed records"
	}
	q := func(m Metric, p float64) float64 {
		v, err := a.Quantile(m, p)
		if err != nil {
			return 0
		}
		return v
	}
	return fmt.Sprintf(
		"n=%d failed=%d | exec p50~%.1fms p99~%.1fms | resp p50~%.1fms p99~%.1fms | turn p99~%.1fms",
		a.completed, a.failed,
		q(Execution, 0.5), q(Execution, 0.99),
		q(Response, 0.5), q(Response, 0.99),
		q(Turnaround, 0.99),
	)
}
