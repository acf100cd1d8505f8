// Package workload implements the paper's §V-B workload pipeline: clean
// the trace table, bucket every function duration to the calibrated
// Fibonacci argument whose modeled duration is nearest, merge rows per
// bucket, downscale invocation counts by a constant factor (the paper uses
// ×100), and derive evenly spaced arrival instants within each minute
// ("we assume that the function arrives at regular intervals every
// minute"). The result is the invocation list every experiment replays,
// and the workload-file format read/written by the tools mirrors the
// paper's (inter-arrival time + Fibonacci argument).
package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/trace"
)

// DefaultDownscale is the paper's trace downscaling factor.
const DefaultDownscale = 100

// Invocation is one function invocation to replay. Its int32 fields
// follow the two durations, so it packs into 32 bytes on 64-bit
// platforms: every copy of an arrival, from the source through the
// router's handoff to a server's pending queue, moves that many.
type Invocation struct {
	// Arrival is the offset from workload start.
	Arrival time.Duration
	// Duration is the modeled service demand of fib(FibN).
	Duration time.Duration
	// FibN is the calibrated Fibonacci argument standing in for the
	// function body.
	FibN int32
	// MemMB is the allocated memory size (drives billing).
	MemMB int32
	// FuncID identifies the logical function this invocation belongs to —
	// the identity warm instances are shared under. Builder.Stream assigns
	// stable IDs (1..buckets, in sorted bucket order); zero means
	// unassigned, and consumers fall back to the (FibN, MemMB) bucket as
	// the function identity.
	FuncID int32
	// TimeoutMS is this invocation's deadline in milliseconds, measured
	// from each attempt's (re-)admission; past it the fault layer kills
	// and retries the attempt. Zero falls back to the fleet-wide default
	// in faults.Config (and means "no timeout" when that is zero too); a
	// negative value is rejected (Validate). Programmatic only: the
	// workload-file format does not carry it.
	TimeoutMS int32
}

// Validate reports an error naming invocation index i when inv holds a
// value no simulation runs: a non-positive Duration (a task with no
// work) or a negative TimeoutMS (only zero takes the fleet default).
// The int32 fields need no range check: their type is the range a
// metrics.Record stores, and an int32 of milliseconds cannot overflow
// the time.Duration deadline the fault layer derives from it.
func (inv Invocation) Validate(i int) error {
	if inv.Duration <= 0 {
		return fmt.Errorf("invocation %d: non-positive Duration %v", i, inv.Duration)
	}
	if inv.TimeoutMS < 0 {
		return fmt.Errorf("invocation %d: negative TimeoutMS %d", i, inv.TimeoutMS)
	}
	return nil
}

// Builder derives invocation lists from traces.
type Builder struct {
	// Model maps Fibonacci arguments to durations; zero value defaults to
	// fib.DefaultModel().
	Model fib.DurationModel
	// Downscale divides every invocation count; zero defaults to
	// DefaultDownscale. Use 1 for traces generated at already-downscaled
	// volume.
	Downscale int
}

func (b Builder) withDefaults() Builder {
	if b.Model == (fib.DurationModel{}) {
		b.Model = fib.DefaultModel()
	}
	if b.Downscale == 0 {
		b.Downscale = DefaultDownscale
	}
	return b
}

// bucketKey merges trace rows that share a Fibonacci bucket and memory
// size, the analog of the paper's group-by-duration-bucket step (memory is
// kept as a secondary key so the billing distribution survives merging).
type bucketKey struct {
	fibN  int32
	memMB int32
}

// Build derives the invocation list for trace minutes
// [startMinute, startMinute+minutes). It is the materialized adapter over
// Stream: identical validation, identical output sequence.
func (b Builder) Build(tr *trace.Trace, startMinute, minutes int) ([]Invocation, error) {
	src, err := b.Stream(tr, startMinute, minutes)
	if err != nil {
		return nil, err
	}
	out := Materialize(src)
	if len(out) == 0 {
		return nil, errors.New("workload: trace window yields no invocations after downscaling")
	}
	return out, nil
}

// TakeN truncates invs to its first n invocations (the paper pins its main
// workload to exactly 12,442). It returns invs unchanged if shorter.
func TakeN(invs []Invocation, n int) []Invocation {
	if n < len(invs) {
		return invs[:n]
	}
	return invs
}

// Sample returns ~n invocations stride-sampled across invs, preserving
// the duration distribution and the arrival span — the right way to
// shrink a workload for quick-scale runs (truncating with TakeN instead
// would compress arrivals and under-represent the long tail).
func Sample(invs []Invocation, n int) []Invocation {
	if n <= 0 || n >= len(invs) {
		return invs
	}
	stride := float64(len(invs)) / float64(n)
	out := make([]Invocation, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, invs[int(float64(i)*stride)])
	}
	return out
}

// DurationCDF returns the CDF of invocation durations in milliseconds —
// the "sampled data" side of the paper's Fig 10 representativeness check.
func DurationCDF(invs []Invocation) (stats.CDF, error) {
	vals := make([]float64, 0, len(invs))
	for _, inv := range invs {
		vals = append(vals, float64(inv.Duration)/float64(time.Millisecond))
	}
	return stats.NewCDF(vals)
}

// Task converts one invocation into a simulator task with the given id.
func Task(inv Invocation, id simkern.TaskID) *simkern.Task {
	return &simkern.Task{
		ID:      id,
		Label:   fib.Label(int(inv.FibN)),
		Kind:    simkern.KindFunction,
		Arrival: inv.Arrival,
		Work:    inv.Duration,
		MemMB:   inv.MemMB,
		FibN:    inv.FibN,
	}
}

// Tasks converts invocations into simulator tasks (IDs 1..n in arrival
// order).
func Tasks(invs []Invocation) []*simkern.Task {
	out := make([]*simkern.Task, 0, len(invs))
	for i, inv := range invs {
		out = append(out, Task(inv, simkern.TaskID(i+1)))
	}
	return out
}

// TotalWork sums service demands — used to reason about overload levels.
func TotalWork(invs []Invocation) time.Duration {
	var sum time.Duration
	for _, inv := range invs {
		sum += inv.Duration
	}
	return sum
}

// fileHeader is the workload-file header line. The format mirrors the
// paper's workload file: one line per invocation with the inter-arrival
// time (µs) to the previous invocation, the Fibonacci argument, and the
// memory size.
const fileHeader = "iat_us,fib_n,mem_mb"

// Write serializes invocations to w in the workload-file format.
func Write(w io.Writer, invs []Invocation) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, fileHeader); err != nil {
		return err
	}
	// Compute IATs between µs-rounded arrivals so the file's truncation
	// error stays bounded at 1 µs instead of accumulating across rows.
	prevUS := int64(0)
	for _, inv := range invs {
		curUS := inv.Arrival.Microseconds()
		iatUS := curUS - prevUS
		if iatUS < 0 {
			return fmt.Errorf("workload: invocations not sorted by arrival (iat %dus)", iatUS)
		}
		prevUS = curUS
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", iatUS, inv.FibN, inv.MemMB); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the workload-file format, reconstructing arrivals from the
// inter-arrival times and durations from the model. It is the thin
// materializing adapter over ReadSource; long traces that should never be
// held in memory feed ReadSource to the fleet entry points directly.
func Read(r io.Reader, model fib.DurationModel) ([]Invocation, error) {
	src, readErr, err := ReadSource(r, model)
	if err != nil {
		return nil, err
	}
	out := Materialize(src)
	if err := readErr(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("workload: file has no invocations")
	}
	return out, nil
}
