// Package metrics implements the paper's §II-B measurement model
// (following Arpaci-Dusseau's OSTEP definitions):
//
//	Texecution  = Tcompletion − TfirstRun
//	Tresponse   = TfirstRun  − Tarrival
//	Tturnaround = Tcompletion − Tarrival
//
// plus the derived quantities every experiment reports: metric CDFs,
// per-core preemption counts, and billing joins against a pricing.Tariff.
package metrics

import (
	"fmt"
	"math"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/stats"
)

// Record is one completed (or failed) invocation's measurements.
//
// Exact fleets keep one Record per invocation, so the field order packs
// it: the eight-byte fields first, then the five 32-bit ones, then the
// two bools side by side — 80 bytes on 64-bit platforms, with no
// pointers, so a slot array of records is never scanned by the garbage
// collector (TestRecordLayout). MemMB and FibN are int32 from the
// workload.Invocation on, so they are copied, never narrowed; Attempts
// is int32, and faults.Config.Validate rejects a retry budget that does
// not fit; Preemptions and VM are narrowed with a check that panics,
// naming the task (NarrowPreemptions, FromTask), so the narrowing never
// truncates. Its methods take a pointer, so reading a metric never
// copies the record.
type Record struct {
	ID       uint64
	Arrival  time.Duration
	FirstRun time.Duration
	Finish   time.Duration
	CPU      time.Duration // CPU actually consumed
	// ColdStart is the instance start latency this invocation paid (zero
	// on warm hits and when the cold-start model is disabled). The latency
	// is part of the service demand, so Execution already includes it;
	// this field breaks it out.
	ColdStart time.Duration
	// Wasted is CPU consumed by killed attempts — billed but discarded
	// work. Completed records carry the waste of their failed earlier
	// attempts; give-up records carry the waste of every attempt.
	Wasted      time.Duration
	Preemptions int32
	MemMB       int32
	FibN        int32
	// Attempts counts admissions of this invocation under fault-injected
	// retries. Zero means "one attempt, fault layer inactive" — records
	// from fault-free runs are bit-identical to pre-fault ones.
	Attempts int32
	// VM is the index + 1 of the microVM whose vCPU thread ran this
	// invocation (Firecracker mode, paper §VI-E), and zero for a plain
	// function invocation.
	VM int32
	// Failed marks invocations that never ran (e.g. microVM launch
	// failures when server memory is exhausted, §VI-E) or that the fault
	// layer gave up on after exhausting retries. Failed records carry no
	// timing metrics and are excluded from every latency quantile, but
	// their Wasted CPU is still billed.
	Failed bool
	// GiveUp marks a Failed record whose retry budget was exhausted (or
	// whose server died for good); always false on completed records.
	GiveUp bool
}

// Label returns the invocation's task label, derived from FibN and VM:
// "fib(n)" for a function record and "vm<i>-fib(n)" for the vCPU record
// of microVM i — the labels workload.Task and the Firecracker fleet give
// their tasks. A function label up to fib.MaxN comes from a table; a
// vCPU label is formatted, so it allocates.
func (r *Record) Label() string {
	if r.VM > 0 {
		return fib.VMLabel(int(r.VM)-1, int(r.FibN))
	}
	return fib.Label(int(r.FibN))
}

// Execution returns Tcompletion − TfirstRun.
func (r *Record) Execution() time.Duration { return r.Finish - r.FirstRun }

// Response returns TfirstRun − Tarrival.
func (r *Record) Response() time.Duration { return r.FirstRun - r.Arrival }

// Turnaround returns Tcompletion − Tarrival.
func (r *Record) Turnaround() time.Duration { return r.Finish - r.Arrival }

// Cold reports whether this invocation paid a cold start.
func (r *Record) Cold() bool { return r.ColdStart > 0 }

// NarrowPreemptions returns task id's preemption count n as a
// Record.Preemptions value. It panics, naming the task, when n does not
// fit an int32: no count is silently truncated.
func NarrowPreemptions(id uint64, n int) int32 {
	if uint(n) > math.MaxInt32 {
		panic(fmt.Sprintf("metrics: task %d: %d preemptions do not fit Record.Preemptions (int32)", id, n))
	}
	return int32(n)
}

// vmOf returns t's Record.VM value: its microVM index + 1 for a vCPU
// task, zero otherwise. It panics, naming the task, on an index that
// does not fit (firecracker.Fleet refuses to launch that many microVMs).
func vmOf(t *simkern.Task) int32 {
	if t.Kind != simkern.KindVCPU {
		return 0
	}
	if uint(t.VMID) >= math.MaxInt32 {
		panic(fmt.Sprintf("metrics: task %d: microVM index %d does not fit Record.VM (int32)", t.ID, t.VMID))
	}
	return int32(t.VMID) + 1
}

// FromTask converts a finished simulator task into a Record.
func FromTask(t *simkern.Task) Record {
	return Record{
		ID:          uint64(t.ID),
		Arrival:     t.Arrival,
		FirstRun:    t.FirstRun(),
		Finish:      t.Finish(),
		CPU:         t.CPUConsumed(),
		Preemptions: NarrowPreemptions(uint64(t.ID), t.Preemptions()),
		MemMB:       t.MemMB,
		FibN:        t.FibN,
		VM:          vmOf(t),
		ColdStart:   t.ColdStart,
	}
}

// Set is a collection of records with derived statistics.
type Set struct {
	Records []Record
}

// Collect gathers records for every finished or failed function-kind task
// in the kernel. MicroVM housekeeping threads (VMM/IO) are excluded: the
// paper bills and measures function invocations, not VMM internals. Failed
// tasks (aborted microVM launches) yield Failed records with no timings.
func Collect(k *simkern.Kernel) Set {
	s := Set{Records: make([]Record, 0, len(k.Tasks()))}
	for _, t := range k.Tasks() {
		if t.Kind != simkern.KindFunction && t.Kind != simkern.KindVCPU {
			continue
		}
		switch t.State() {
		case simkern.StateFinished:
			s.Records = append(s.Records, FromTask(t))
		case simkern.StateFailed:
			s.Records = append(s.Records, Record{
				ID:     uint64(t.ID),
				MemMB:  t.MemMB,
				FibN:   t.FibN,
				VM:     vmOf(t),
				Failed: true,
			})
		}
	}
	return s
}

// Completed returns the records that actually ran.
func (s Set) Completed() []Record {
	out := make([]Record, 0, len(s.Records))
	for _, r := range s.Records {
		if !r.Failed {
			out = append(out, r)
		}
	}
	return out
}

// FailedCount returns the number of failed invocations.
func (s Set) FailedCount() int {
	n := 0
	for _, r := range s.Records {
		if r.Failed {
			n++
		}
	}
	return n
}

// Metric selects one of the paper's three per-task metrics.
type Metric int

// Metrics.
const (
	Execution Metric = iota + 1
	Response
	Turnaround
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Execution:
		return "execution"
	case Response:
		return "response"
	case Turnaround:
		return "turnaround"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// valueMs extracts metric m from r in milliseconds.
func valueMs(r *Record, m Metric) float64 {
	var d time.Duration
	switch m {
	case Execution:
		d = r.Execution()
	case Response:
		d = r.Response()
	case Turnaround:
		d = r.Turnaround()
	}
	return float64(d) / float64(time.Millisecond)
}

// CDF builds the empirical CDF (milliseconds) of metric m over completed
// records. It reads the records in place, and the CDF sorts and keeps
// the slice of values: that slice is all it allocates.
func (s Set) CDF(m Metric) (stats.CDF, error) {
	vals := make([]float64, 0, len(s.Records)-s.FailedCount())
	for i := range s.Records {
		if r := &s.Records[i]; !r.Failed {
			vals = append(vals, valueMs(r, m))
		}
	}
	return stats.NewCDF(vals)
}

// P99 returns the 99th percentile of metric m, in seconds (the unit of the
// paper's Table I).
func (s Set) P99(m Metric) (float64, error) {
	c, err := s.CDF(m)
	if err != nil {
		return 0, err
	}
	return c.Quantile(0.99) / 1000.0, nil
}

// TotalExecution sums execution time across completed records.
func (s Set) TotalExecution() time.Duration {
	var sum time.Duration
	for i := range s.Records {
		if r := &s.Records[i]; !r.Failed {
			sum += r.Execution()
		}
	}
	return sum
}

// ColdStarts counts completed records that paid a cold start.
func (s Set) ColdStarts() int {
	n := 0
	for _, r := range s.Records {
		if !r.Failed && r.Cold() {
			n++
		}
	}
	return n
}

// TotalPreemptions sums preemption counts.
func (s Set) TotalPreemptions() int {
	n := 0
	for _, r := range s.Records {
		n += int(r.Preemptions)
	}
	return n
}

// Cost bills every completed record's execution time at its own memory
// size (Table I's "overall cost"), plus every record's Wasted CPU —
// killed attempts burned billable instance time before being discarded,
// so failed records participate in cost through their waste even though
// they never contribute a latency sample. Waste bills compute time only:
// the per-request charge is levied once per completed invocation, never
// on the attempts the fault layer discarded.
func (s Set) Cost(t pricing.Tariff) float64 {
	total := 0.0
	for _, r := range s.Records {
		if !r.Failed {
			total += t.InvocationCost(r.Execution(), int(r.MemMB))
		}
		if r.Wasted > 0 {
			total += t.ComputeCost(r.Wasted, int(r.MemMB))
		}
	}
	return total
}

// CostAtUniformMemory bills every completed record (and all Wasted CPU)
// as if all functions had the same memory size — the paper's Figs 1, 20,
// 22 ("what the cost difference would be if all functions would have the
// same size").
func (s Set) CostAtUniformMemory(t pricing.Tariff, memMB int) float64 {
	total := 0.0
	for _, r := range s.Records {
		if !r.Failed {
			total += t.InvocationCost(r.Execution(), memMB)
		}
		if r.Wasted > 0 {
			total += t.ComputeCost(r.Wasted, memMB)
		}
	}
	return total
}

// Goodput is the fraction of invocations that completed (1 when the set
// is empty).
func (s Set) Goodput() float64 {
	if len(s.Records) == 0 {
		return 1
	}
	return float64(len(s.Records)-s.FailedCount()) / float64(len(s.Records))
}

// RetryAmplification is admissions per invocation: mean Attempts (a zero
// Attempts field counts as one attempt). 1.0 means no retries fired.
func (s Set) RetryAmplification() float64 {
	if len(s.Records) == 0 {
		return 1
	}
	n := 0
	for _, r := range s.Records {
		a := int(r.Attempts)
		if a < 1 {
			a = 1
		}
		n += a
	}
	return float64(n) / float64(len(s.Records))
}

// WastedCPU sums billed-but-discarded CPU across all records.
func (s Set) WastedCPU() time.Duration {
	var sum time.Duration
	for _, r := range s.Records {
		sum += r.Wasted
	}
	return sum
}

// GiveUps counts invocations abandoned after exhausting retries.
func (s Set) GiveUps() int {
	n := 0
	for _, r := range s.Records {
		if r.GiveUp {
			n++
		}
	}
	return n
}

// PreemptionsPerCore returns each core's preemption count from the kernel
// (Fig 13).
func PreemptionsPerCore(k *simkern.Kernel) []int64 {
	out := make([]int64, k.CoreCount())
	for c := 0; c < k.CoreCount(); c++ {
		out[c] = k.CorePreemptions(simkern.CoreID(c))
	}
	return out
}

// GroupUtil averages the recorded utilization history of a core group into
// one series (Figs 14, 16, 17, 19). It requires the kernel to have been
// built with RecordUtil.
func GroupUtil(k *simkern.Kernel, cores []simkern.CoreID, name string) *stats.Series {
	out := stats.NewSeries(name)
	if len(cores) == 0 {
		return out
	}
	ref := k.UtilHistory(cores[0])
	if ref == nil {
		return out
	}
	n := ref.Len()
	for i := 0; i < n; i++ {
		sum := 0.0
		cnt := 0
		var at time.Duration
		for _, c := range cores {
			h := k.UtilHistory(c)
			if h == nil || i >= h.Len() {
				continue
			}
			sum += h.Samples()[i].V
			at = h.Samples()[i].T
			cnt++
		}
		if cnt > 0 {
			out.Append(at, sum/float64(cnt))
		}
	}
	return out
}

// Summary is a compact textual digest used by examples and harness logs.
func (s Set) Summary() string {
	failed := s.FailedCount()
	done := len(s.Records) - failed
	if done == 0 {
		return "no completed records"
	}
	exec, _ := s.CDF(Execution)
	resp, _ := s.CDF(Response)
	turn, _ := s.CDF(Turnaround)
	return fmt.Sprintf(
		"n=%d failed=%d | exec p50=%.1fms p99=%.1fms | resp p50=%.1fms p99=%.1fms | turn p99=%.1fms",
		done, failed,
		exec.Quantile(0.5), exec.Quantile(0.99),
		resp.Quantile(0.5), resp.Quantile(0.99),
		turn.Quantile(0.99),
	)
}
