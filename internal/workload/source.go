// Streaming side of the workload pipeline: a Source yields invocations
// lazily, minute by minute, so consumers (the fleet engine's router in
// internal/cluster) never hold more than one trace minute of arrivals —
// the first half of turning peak memory from O(total invocations) into
// O(active tasks + one watermark step). Build remains the materialized adapter over Stream.

package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/faassched/faassched/internal/chunk"
	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
)

// Source yields invocations in non-decreasing arrival order. It is an
// iter.Seq[Invocation]: usable directly in a range-over-func loop, or
// pulled one invocation at a time via iter.Pull.
//
// Replayability depends on the producer: derived sources (Builder.Stream,
// SliceSource) may be consumed any number of times and every pass yields
// the identical sequence, but sources that drain an underlying reader
// (ReadSource) are single-pass — a second iteration yields nothing and
// reports "source already consumed" through the producer's error function.
// Consumers that need multiple passes over an arbitrary Source must
// Materialize it first.
type Source func(yield func(Invocation) bool)

// Stream is the lazy equivalent of Build: it validates the request and
// merges the trace's bucket counts up front (O(buckets × minutes), tiny),
// but derives each minute's invocations only as the consumer reaches it.
//
// Each minute is the (Arrival, FibN, MemMB)-ordered union of the buckets'
// evenly spaced runs (§V-B "Workload Generation"). A bucket's run is
// strictly increasing in Arrival, so the minute is a k-way merge of its
// runs, keyed by (next arrival, bucket index): bucket indexes follow
// (FibN, MemMB) order, so the key orders exactly as (Arrival, FibN,
// MemMB), a strict total order, and the merge yields exactly the sorted
// minute, one heap step per invocation and no per-minute buffer
// (DESIGN.md §18). Arrivals never
// cross minute boundaries, so the minutes concatenate into the sorted
// whole.
func (b Builder) Stream(tr *trace.Trace, startMinute, minutes int) (Source, error) {
	b = b.withDefaults()
	if err := b.Model.Validate(); err != nil {
		return nil, err
	}
	if b.Downscale < 1 {
		return nil, fmt.Errorf("workload: Downscale must be >= 1, got %d", b.Downscale)
	}
	if startMinute < 0 || minutes < 1 || startMinute+minutes > tr.Minutes {
		return nil, fmt.Errorf("workload: minute range [%d, %d) outside trace of %d minutes",
			startMinute, startMinute+minutes, tr.Minutes)
	}

	// Clean + bucket + merge (§V-B "Extracting Traces").
	merged := make(map[bucketKey][]int)
	for _, row := range tr.CleanRows() {
		if row.MemMB > math.MaxInt32 {
			return nil, fmt.Errorf("workload: trace row %d: mem_mb %d above %d", row.ID, row.MemMB, math.MaxInt32)
		}
		key := bucketKey{fibN: int32(b.Model.NearestN(row.AvgDuration)), memMB: int32(row.MemMB)}
		counts, ok := merged[key]
		if !ok {
			counts = make([]int, minutes)
			merged[key] = counts
		}
		for m := 0; m < minutes; m++ {
			counts[m] += row.Counts[startMinute+m]
		}
	}

	// Deterministic iteration order over buckets.
	keys := make([]bucketKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fibN != keys[j].fibN {
			return keys[i].fibN < keys[j].fibN
		}
		return keys[i].memMB < keys[j].memMB
	})
	buckets := make([]bucket, len(keys))
	for ki, key := range keys {
		buckets[ki] = bucket{
			inv: Invocation{
				FibN:     key.fibN,
				Duration: b.Model.Duration(int(key.fibN)),
				MemMB:    key.memMB,
				FuncID:   int32(ki + 1), // stable over the sorted buckets
			},
			counts: merged[key],
		}
	}

	return func(yield func(Invocation) bool) {
		runs := make(runHeap, 0, len(buckets))
		for m := 0; m < minutes; m++ {
			// Downscale + evenly spaced arrivals per minute (§V-B
			// "Workload Generation").
			base := time.Duration(m) * time.Minute
			runs = runs[:0]
			for ki := range buckets {
				k := buckets[ki].counts[m] / b.Downscale
				if k <= 0 {
					continue
				}
				runs = append(runs, run{next: base, iat: time.Minute / time.Duration(k), left: k, bucket: ki})
			}
			// Every run starts at base and they were appended in bucket
			// order, so the slice is sorted by key: already a heap.
			// "After sorting the invocations of all functions within that
			// minute, the time difference between adjacent invocations is
			// the inter-arrival time."
			for len(runs) > 0 {
				r := &runs[0]
				inv := buckets[r.bucket].inv
				inv.Arrival = r.next
				if !yield(inv) {
					return
				}
				if r.left--; r.left > 0 {
					r.next += r.iat
				} else {
					runs[0] = runs[len(runs)-1]
					runs = runs[:len(runs)-1]
				}
				runs.down(0)
			}
		}
	}, nil
}

// bucket is one (FibN, MemMB) bucket of a Stream: the invocation fields
// its arrivals share and its per-minute arrival counts.
type bucket struct {
	inv    Invocation
	counts []int
}

// run is one bucket's remaining arrivals in the current minute: left
// more, the next at next, each iat after the one before.
type run struct {
	next   time.Duration
	iat    time.Duration
	left   int
	bucket int
}

func (r *run) less(o *run) bool {
	return r.next < o.next || (r.next == o.next && r.bucket < o.bucket)
}

// runHeap is the merge's binary min-heap of runs under run.less.
type runHeap []run

// down sifts the run at slot i down to its place.
func (h runHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ReadSource is Read's streaming sibling: it validates the header up
// front, then yields invocations one parsed line at a time, so a
// multi-GB trace file can feed the streaming simulation entry points
// without ever being materialized. Unlike a Builder.Stream source the
// result is single-pass — it consumes r as it is pulled, so it must be
// iterated at most once. A second iteration yields nothing and latches a
// "source already consumed" error on the returned error function, so a
// multi-pass consumer fails loudly instead of silently simulating an
// empty run.
//
// Parse errors after the header cannot surface through the yield-based
// Source shape; they stop the stream early and are reported by the
// returned error function, which the consumer must check once iteration
// is over. Read is the thin materializing adapter over this.
func ReadSource(r io.Reader, model fib.DurationModel) (Source, func() error, error) {
	if model == (fib.DurationModel{}) {
		model = fib.DefaultModel()
	}
	if err := model.Validate(); err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, nil, errors.New("workload: empty file")
	}
	if got := strings.TrimSpace(sc.Text()); got != fileHeader {
		return nil, nil, fmt.Errorf("workload: bad header %q, want %q", got, fileHeader)
	}
	var readErr error
	started := false
	src := func(yield func(Invocation) bool) {
		// Single-pass latch: any second iteration — including after an
		// early break — yields nothing, rather than resuming mid-file
		// with the arrival accumulator and line counter rebased. The
		// violation is surfaced through the error function (unless a real
		// read error already owns it).
		if started {
			if readErr == nil {
				readErr = errors.New("workload: source already consumed (ReadSource is single-pass; Materialize first for multiple passes)")
			}
			return
		}
		started = true
		arrival := time.Duration(0)
		line := 1
		for readErr == nil && sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			inv, err := parseInvocation(text, line, model)
			if err != nil {
				readErr = err
				return
			}
			// The parsed field holds the inter-arrival time.
			if inv.Arrival > math.MaxInt64-arrival {
				readErr = fmt.Errorf("workload: line %d: arrival overflows %v", line, time.Duration(math.MaxInt64))
				return
			}
			arrival += inv.Arrival
			inv.Arrival = arrival
			if !yield(inv) {
				return
			}
		}
		if err := sc.Err(); err != nil && readErr == nil {
			readErr = err
		}
	}
	return src, func() error { return readErr }, nil
}

// parseInvocation parses one workload-file row. The returned Arrival
// carries the row's inter-arrival time; the caller accumulates it into an
// absolute arrival instant. A fib_n or mem_mb above math.MaxInt32 is
// rejected before it is converted to the invocation's int32 field.
func parseInvocation(text string, line int, model fib.DurationModel) (Invocation, error) {
	fields := strings.Split(text, ",")
	if len(fields) != 3 {
		return Invocation{}, fmt.Errorf("workload: line %d: want 3 fields, got %d", line, len(fields))
	}
	iatUS, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || iatUS < 0 || iatUS > math.MaxInt64/int64(time.Microsecond) {
		return Invocation{}, fmt.Errorf("workload: line %d: bad iat %q", line, fields[0])
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 {
		return Invocation{}, fmt.Errorf("workload: line %d: bad fib_n %q", line, fields[1])
	}
	if n > math.MaxInt32 {
		return Invocation{}, fmt.Errorf("workload: line %d: fib_n %d above %d", line, n, math.MaxInt32)
	}
	mem, err := strconv.Atoi(fields[2])
	if err != nil || mem < 1 {
		return Invocation{}, fmt.Errorf("workload: line %d: bad mem_mb %q", line, fields[2])
	}
	if mem > math.MaxInt32 {
		return Invocation{}, fmt.Errorf("workload: line %d: mem_mb %d above %d", line, mem, math.MaxInt32)
	}
	dur := model.Duration(n)
	if dur <= 0 {
		return Invocation{}, fmt.Errorf("workload: line %d: fib_n %d models no positive duration", line, n)
	}
	return Invocation{
		Arrival:  time.Duration(iatUS) * time.Microsecond,
		FibN:     int32(n),
		Duration: dur,
		MemMB:    int32(mem),
	}, nil
}

// SliceSource adapts a materialized invocation list to the Source shape.
func SliceSource(invs []Invocation) Source {
	return func(yield func(Invocation) bool) {
		for _, inv := range invs {
			if !yield(inv) {
				return
			}
		}
	}
}

// Materialize drains a source into a slice — the inverse of SliceSource.
// It collects into fixed-size chunks and copies them once into a slice of
// exactly the source's length. A Source carries no length, and a
// ReadSource can be read only once, so at its peak it holds two full
// copies of the workload: the chunks and the slice.
func Materialize(src Source) []Invocation {
	var log chunk.Log[Invocation]
	src(func(inv Invocation) bool {
		log.Push(inv)
		return true
	})
	return log.Flatten()
}

// TaskPool builds simulator tasks from invocations and recycles finished
// ones, so a streaming run allocates task structs proportional to its
// peak concurrency rather than its total invocation count. A pool is not
// safe for concurrent use; a fleet shard's servers share one, which only
// the shard's goroutine touches. The zero TaskPool is an empty pool.
type TaskPool struct {
	free []*simkern.Task
}

// NewTaskPool returns an empty pool.
func NewTaskPool() *TaskPool { return &TaskPool{} }

// Get returns a task carrying inv under the given id, reusing a recycled
// struct when one is free.
func (p *TaskPool) Get(inv Invocation, id simkern.TaskID) *simkern.Task {
	var t *simkern.Task
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		t = &simkern.Task{}
	}
	t.ID = id
	t.Label = fib.Label(int(inv.FibN))
	t.Kind = simkern.KindFunction
	t.Arrival = inv.Arrival
	t.Work = inv.Duration
	t.MemMB = inv.MemMB
	t.FibN = inv.FibN
	return t
}

// Put recycles a finished task back into the pool. It reports whether the
// task was accepted; live tasks are refused (Task.Recycle's contract) and
// left untouched.
func (p *TaskPool) Put(t *simkern.Task) bool {
	if t == nil || !t.Recycle() {
		return false
	}
	p.free = append(p.free, t)
	return true
}

// FreeLen returns the number of pooled free tasks (tests).
func (p *TaskPool) FreeLen() int { return len(p.free) }
