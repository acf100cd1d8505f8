package core_test

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/simkern"
)

// ownershipRig is a 2-core hybrid — core 0 FIFO, core 1 CFS, a 10 ms
// limit — whose TASK_DEAD messages take 1 ms to reach the policy, so a
// test can stop the clock while a completion is in flight.
type ownershipRig struct {
	t *testing.T
	k *simkern.Kernel
	h *core.Hybrid
}

func newOwnershipRig(t *testing.T, auxToCFS bool) *ownershipRig {
	t.Helper()
	k, err := simkern.New(simkern.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := core.New(core.Config{
		FIFOCores: 1,
		TimeLimit: core.TimeLimitConfig{Static: 10 * time.Millisecond},
		AuxToCFS:  auxToCFS,
	})
	if _, err := ghost.NewEnclave(k, h, ghost.Config{MsgLatency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return &ownershipRig{t, k, h}
}

func (r *ownershipRig) add(id simkern.TaskID, kind simkern.TaskKind, work time.Duration) *simkern.Task {
	r.t.Helper()
	task := &simkern.Task{ID: id, Kind: kind, Work: work}
	if err := r.k.AddTask(task); err != nil {
		r.t.Fatal(err)
	}
	return task
}

func (r *ownershipRig) runTo(at time.Duration) {
	r.t.Helper()
	if _, err := r.k.Run(at); err != nil {
		r.t.Fatal(err)
	}
}

// evict evicts task, which must sit where the test put it, then aborts it
// as the fault machine does.
func (r *ownershipRig) evict(task *simkern.Task, state simkern.TaskState, inCFS bool) {
	r.t.Helper()
	if task.State() != state || cfs.Owns(task) != inCFS {
		r.t.Fatalf("task %d: state %v, owned by CFS %t; want %v, %t",
			task.ID, task.State(), cfs.Owns(task), state, inCFS)
	}
	if !r.h.EvictTask(task) {
		r.t.Fatalf("EvictTask(%d) = false for a live task", task.ID)
	}
	if err := r.k.AbortTask(task); err != nil {
		r.t.Fatal(err)
	}
	r.released(task)
}

// released checks that task holds no CFS record.
func (r *ownershipRig) released(task *simkern.Task) {
	r.t.Helper()
	if cfs.Owns(task) || task.PolicyData != nil {
		r.t.Errorf("task %d: owned by CFS %t, PolicyData %v after leaving the hybrid; want false, nil",
			task.ID, cfs.Owns(task), task.PolicyData)
	}
}

// queuedIn returns whichever of tasks is runnable, or nil.
func queuedIn(tasks ...*simkern.Task) *simkern.Task {
	for _, task := range tasks {
		if task.State() == simkern.StateRunnable {
			return task
		}
	}
	return nil
}

// TestEvictByOwnership: the hybrid takes a task's group from its CFS
// record. Every place a live task can sit — FIFO queue, FIFO core, CFS
// runqueue, CFS core, and the CFS group straight from birth under
// AuxToCFS — evicts through the right engine, and every exit leaves the
// task without a record.
func TestEvictByOwnership(t *testing.T) {
	t.Run("fifo", func(t *testing.T) {
		r := newOwnershipRig(t, false)
		running := r.add(1, simkern.KindFunction, time.Second)
		queued := r.add(2, simkern.KindFunction, time.Second)
		r.runTo(5 * time.Millisecond)
		r.evict(queued, simkern.StateRunnable, false)
		r.evict(running, simkern.StateRunning, false)
	})
	t.Run("spilled", func(t *testing.T) {
		r := newOwnershipRig(t, false)
		a := r.add(1, simkern.KindFunction, time.Second)
		b := r.add(2, simkern.KindFunction, time.Second)
		r.add(3, simkern.KindFunction, time.Second)
		// a spills at 10 ms and b at 20 ms, both onto the one CFS core:
		// one of them runs there, the other waits in its runqueue.
		r.runTo(25 * time.Millisecond)
		if r.h.Spills() != 2 {
			t.Fatalf("%d spills by 25 ms, want 2", r.h.Spills())
		}
		queued := queuedIn(a, b)
		if queued == nil {
			t.Fatal("neither spilled task waits on the CFS runqueue")
		}
		running := a
		if queued == a {
			running = b
		}
		r.evict(queued, simkern.StateRunnable, true)
		r.evict(running, simkern.StateRunning, true)
	})
	t.Run("aux-to-cfs", func(t *testing.T) {
		r := newOwnershipRig(t, true)
		vmm := r.add(1, simkern.KindVMM, time.Second)
		io := r.add(2, simkern.KindIO, time.Second)
		r.runTo(5 * time.Millisecond)
		if r.h.Spills() != 0 {
			t.Fatalf("%d spills; housekeeping should reach CFS without one", r.h.Spills())
		}
		queued := queuedIn(vmm, io)
		if queued == nil {
			t.Fatal("neither housekeeping thread waits on the CFS runqueue")
		}
		running := vmm
		if queued == vmm {
			running = io
		}
		r.evict(queued, simkern.StateRunnable, true)
		r.evict(running, simkern.StateRunning, true)
	})
}

// TestEvictAcrossCompletion: a task whose completion is in flight, and a
// task the hybrid has already retired at TASK_DEAD, cannot be evicted.
// A spilled task keeps its CFS record until TASK_DEAD is delivered, and
// loses it then.
func TestEvictAcrossCompletion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		work  time.Duration
		inCFS bool
	}{
		{"fifo", 5 * time.Millisecond, false},
		{"spilled", 15 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newOwnershipRig(t, false)
			task := r.add(1, simkern.KindFunction, tc.work)
			for task.State() != simkern.StateFinished {
				if r.k.Now() > time.Second {
					t.Fatal("task never finished")
				}
				r.runTo(r.k.Now() + 50*time.Microsecond)
			}
			// The kernel has finished the task; the hybrid hears of it
			// 1 ms later.
			if cfs.Owns(task) != tc.inCFS {
				t.Fatalf("completion in flight: owned by CFS %t, want %t", cfs.Owns(task), tc.inCFS)
			}
			if r.h.EvictTask(task) {
				t.Error("EvictTask = true for a task whose completion is in flight")
			}
			r.runTo(r.k.Now() + 2*time.Millisecond)
			r.released(task)
			if r.h.EvictTask(task) {
				t.Error("EvictTask = true after TASK_DEAD")
			}
			r.released(task)
		})
	}
}
