package cfs

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/simkern"
)

// TestRecycledRecordStartsClean: records released at TASK_DEAD are zeroed
// (no vruntime, no stale runqueue links) and detached from their tasks;
// a later enqueue reuses them with vruntime re-based to the runqueue's
// floor, exactly as a fresh record would be.
func TestRecycledRecordStartsClean(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Params{})
	if _, err := ghost.NewEnclave(k, p, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	add := func(id simkern.TaskID, at, work time.Duration) *simkern.Task {
		task := &simkern.Task{ID: id, Arrival: at, Work: work}
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
		return task
	}
	first := []*simkern.Task{
		add(1, 0, 30*time.Millisecond),
		add(2, 0, 30*time.Millisecond),
		add(3, 0, 30*time.Millisecond),
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	eng := &p.engine
	for _, task := range first {
		if task.PolicyData != nil {
			t.Errorf("task %d still holds its CFS record after TASK_DEAD", task.ID)
		}
	}
	if len(eng.free) != len(first) {
		t.Fatalf("free list holds %d records, want %d", len(eng.free), len(first))
	}
	released := make(map[*taskData]bool)
	for _, d := range eng.free {
		if *d != (taskData{}) {
			t.Errorf("released record not zeroed: %+v", *d)
		}
		released[d] = true
	}
	rq := eng.rq(0)
	floor := rq.minV
	if floor <= 0 {
		t.Fatalf("runqueue floor %v after time sharing, want > 0", floor)
	}

	// Two arrivals at once: one runs, one queues behind it, both on
	// recycled records.
	at := k.Now() + time.Millisecond
	x := add(4, at, 10*time.Millisecond)
	y := add(5, at, 10*time.Millisecond)
	checked := false
	k.SetTimer(at+time.Microsecond, func() {
		checked = true
		for _, task := range []*simkern.Task{x, y} {
			d, ok := task.PolicyData.(*taskData)
			if !ok || !released[d] {
				t.Fatalf("task %d did not draw a recycled record", task.ID)
			}
			if d.vruntime != floor {
				t.Errorf("task %d vruntime %v, want re-based to floor %v", task.ID, d.vruntime, floor)
			}
		}
		if rq.curr != x {
			t.Fatalf("runner is %v, want task 4", rq.curr)
		}
		yd := y.PolicyData.(*taskData)
		if rq.tree.Len() != 1 || rq.tree.Min() != &yd.node || rq.tree.Max() != &yd.node {
			t.Fatal("queued recycled record is not the tree's only node")
		}
		if !yd.queued || yd.node.Key.Weight != int64(floor) || yd.node.Value != y {
			t.Errorf("queued record %+v, want key %v carrying task 5", *yd, floor)
		}
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("probe timer never fired")
	}
	if x.State() != simkern.StateFinished || y.State() != simkern.StateFinished {
		t.Fatal("recycled-record tasks did not finish")
	}
	if len(eng.free) != len(first) {
		t.Errorf("free list holds %d records after the second run, want %d", len(eng.free), len(first))
	}
}

// TestEvictReleasesRecord: evicting a queued or a running task releases
// its record to the free list, as a completion would.
func TestEvictReleasesRecord(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Params{})
	if _, err := ghost.NewEnclave(k, p, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	running := &simkern.Task{ID: 1, Work: 50 * time.Millisecond}
	queued := &simkern.Task{ID: 2, Work: 50 * time.Millisecond}
	for _, task := range []*simkern.Task{running, queued} {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	fired := false
	k.SetTimer(time.Millisecond, func() {
		fired = true
		eng := &p.engine
		for i, task := range []*simkern.Task{queued, running} {
			if !eng.Evict(task) {
				t.Fatalf("Evict(task %d) = false", task.ID)
			}
			if task.PolicyData != nil {
				t.Errorf("task %d still holds its record after Evict", task.ID)
			}
			if len(eng.free) != i+1 || *eng.free[i] != (taskData{}) {
				t.Errorf("after evicting task %d: free list %d, want %d zeroed records", task.ID, len(eng.free), i+1)
			}
			if err := k.AbortTask(task); err != nil {
				t.Fatal(err)
			}
		}
		if rq := eng.rq(0); rq.curr != nil || rq.tree.Len() != 0 {
			t.Error("runqueue not empty after evicting both tasks")
		}
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("evict timer never fired")
	}
}

// TestSliceTable: the slice looked up for every runqueue length equals
// SchedLatency/n floored at MinGranularity (n < 1 sliced as 1), for the
// defaults, for tunables whose floor point lies past the table, for a
// floor that is never reached and for negative tunables.
func TestSliceTable(t *testing.T) {
	for _, p := range []Params{
		{},
		{SchedLatency: 6 * time.Millisecond, MinGranularity: 750 * time.Microsecond},
		{SchedLatency: 24 * time.Millisecond, MinGranularity: 24 * time.Millisecond},
		{SchedLatency: 10 * time.Millisecond, MinGranularity: 7 * time.Millisecond},
		{SchedLatency: time.Second, MinGranularity: time.Nanosecond},
		{SchedLatency: time.Millisecond, MinGranularity: -time.Millisecond},
		{SchedLatency: -24 * time.Millisecond, MinGranularity: -time.Millisecond},
		{SchedLatency: -24 * time.Millisecond, MinGranularity: -48 * time.Millisecond},
	} {
		p = p.withDefaults()
		e := &Engine{params: p}
		e.slices, e.floored = sliceTable(p)
		for n := 0; n <= 4*maxSliceTable; n++ {
			want := p.SchedLatency / time.Duration(max(n, 1))
			if want < p.MinGranularity {
				want = p.MinGranularity
			}
			if got := e.slice(n); got != want {
				t.Fatalf("%+v: slice(%d) = %v, want %v", p, n, got, want)
			}
		}
	}
	if slices, floored := sliceTable(Params{}.withDefaults()); !floored || len(slices) != 10 {
		t.Errorf("default tunables: %d entries (floored %v), want 10 ending at the floor point n=9", len(slices), floored)
	}
}

// TestSliceTablesShared: engines built with the same tunables share one
// slice table, and other tunables get their own.
func TestSliceTablesShared(t *testing.T) {
	a, _ := sharedSliceTable(Params{}.withDefaults())
	b, _ := sharedSliceTable(Params{}.withDefaults())
	if &a[0] != &b[0] {
		t.Error("equal tunables built two slice tables")
	}
	other := Params{MinGranularity: time.Millisecond}.withDefaults()
	c, floored := sharedSliceTable(other)
	want, wantFloored := sliceTable(other)
	if &c[0] == &a[0] || floored != wantFloored || len(c) != len(want) {
		t.Fatalf("tunables %+v: shared table of %d entries (floored %v), want its own of %d (floored %v)", other, len(c), floored, len(want), wantFloored)
	}
	for n := range want {
		if c[n] != want[n] {
			t.Errorf("slice(%d) = %v, want %v", n, c[n], want[n])
		}
	}
}
