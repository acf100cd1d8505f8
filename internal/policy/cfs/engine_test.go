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
	eng := p.engine
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
		eng := p.engine
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
