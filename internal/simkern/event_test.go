package simkern

// Tests for the typed, pooled event core: free-list reuse, O(log n)
// cancellation, cancel-then-fire safety, and the bounded-heap guarantee
// that replaced the tombstone scheme (which grew the heap by one dead
// entry per preempt/replace cycle under CFS churn).

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// drainKernel builds a 1-core kernel with a no-op handler.
func drainKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := New(Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	k.SetHandler(nopHandler{})
	return k
}

type nopHandler struct{}

func (nopHandler) OnTaskArrived(*Task)          {}
func (nopHandler) OnTaskFinished(*Task, CoreID) {}

func TestEventPoolReuse(t *testing.T) {
	k := drainKernel(t)
	const n = 64
	for i := 0; i < n; i++ {
		k.SetTimer(time.Duration(i)*time.Millisecond, func() {})
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := k.loop.freeLen(); got != n {
		t.Fatalf("free list holds %d events after draining %d, want all recycled", got, n)
	}
	// A fresh schedule must come from the pool, not the allocator.
	k.SetTimer(time.Hour, func() {})
	if got := k.loop.freeLen(); got != n-1 {
		t.Fatalf("free list %d after one reschedule, want %d", got, n-1)
	}
	if k.loop.activeLen() != 1 {
		t.Fatalf("activeLen = %d, want 1", k.loop.activeLen())
	}
}

func TestEventPoolSteadyState(t *testing.T) {
	k := drainKernel(t)
	// A self-rescheduling timer chain: steady state must cycle through a
	// constant-size pool instead of allocating per event.
	var fired int
	var again func()
	again = func() {
		fired++
		if fired < 10000 {
			k.SetTimer(k.Now()+time.Microsecond, again)
		}
	}
	k.SetTimer(0, again)
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10000 {
		t.Fatalf("fired %d, want 10000", fired)
	}
	if pool := k.loop.freeLen(); pool > 4 {
		t.Fatalf("pool grew to %d events for a 1-deep timer chain", pool)
	}
}

func TestCancelRemovesFromHeap(t *testing.T) {
	k := drainKernel(t)
	ids := make([]TimerID, 0, 100)
	for i := 0; i < 100; i++ {
		ids = append(ids, k.SetTimer(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if k.loop.activeLen() != 100 {
		t.Fatalf("activeLen = %d, want 100", k.loop.activeLen())
	}
	for i := 0; i < len(ids); i += 2 {
		if !k.CancelTimer(ids[i]) {
			t.Fatalf("timer %d not pending", ids[i])
		}
	}
	// Cancellation is a true removal: the heap shrinks immediately and
	// the structs return to the pool.
	if k.loop.activeLen() != 50 {
		t.Fatalf("activeLen = %d after cancelling half, want 50", k.loop.activeLen())
	}
	if k.loop.freeLen() != 50 {
		t.Fatalf("freeLen = %d after cancelling half, want 50", k.loop.freeLen())
	}
	n, err := k.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("processed %d events, want the 50 survivors", n)
	}
}

// TestTimerCancelUnderChurn stresses interleaved set/cancel/fire cycles
// and checks the exact surviving set fires.
func TestTimerCancelUnderChurn(t *testing.T) {
	k := drainKernel(t)
	fired := map[int]bool{}
	canceled := map[int]bool{}
	ids := map[int]TimerID{}
	next := 0
	// Seed churn: every firing timer cancels one pending sibling and
	// schedules two more, up to a population cap.
	var arm func(at time.Duration)
	arm = func(at time.Duration) {
		if next >= 500 {
			return
		}
		n := next
		next++
		ids[n] = k.SetTimer(at, func() {
			fired[n] = true
			// Cancel the oldest still-pending sibling.
			for m := 0; m < n; m++ {
				if !fired[m] && !canceled[m] {
					if k.CancelTimer(ids[m]) {
						canceled[m] = true
					}
					break
				}
			}
			arm(k.Now() + 3*time.Microsecond)
			arm(k.Now() + 5*time.Microsecond)
		})
	}
	for i := 0; i < 10; i++ {
		arm(time.Duration(i+1) * time.Microsecond)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for n := range fired {
		if canceled[n] {
			t.Fatalf("timer %d both fired and was cancelled", n)
		}
	}
	if len(fired)+len(canceled) != next {
		t.Fatalf("fired %d + cancelled %d != armed %d", len(fired), len(canceled), next)
	}
	if len(fired) == 0 || len(canceled) == 0 {
		t.Fatal("churn test degenerated: nothing fired or nothing cancelled")
	}
}

// TestCancelThenFireRace covers the preemption race: a cancelled
// completion event must never fire, even when the task is immediately
// re-dispatched and a new completion is scheduled for the same instant.
func TestCancelThenFireRace(t *testing.T) {
	k := drainKernel(t)
	task := &Task{ID: 1, Work: 10 * time.Millisecond}
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	var finishes int
	k.SetHandler(handlerFns{
		arrived: func(tk *Task) {
			if err := k.RunTask(0, tk); err != nil {
				t.Fatal(err)
			}
		},
		finished: func(*Task, CoreID) { finishes++ },
	})
	// Preempt and instantly replace, 50 times, at 1ms intervals.
	for i := 1; i <= 50; i++ {
		k.SetTimer(time.Duration(i)*time.Millisecond, func() {
			got, err := k.Preempt(0)
			if err != nil {
				return // already finished
			}
			if err := k.RunTask(0, got); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if finishes != 1 {
		t.Fatalf("task finished %d times, want exactly 1", finishes)
	}
	if task.State() != StateFinished {
		t.Fatalf("task state = %v, want finished", task.State())
	}
}

type handlerFns struct {
	arrived  func(*Task)
	finished func(*Task, CoreID)
}

func (h handlerFns) OnTaskArrived(t *Task)            { h.arrived(t) }
func (h handlerFns) OnTaskFinished(t *Task, c CoreID) { h.finished(t, c) }

// TestHeapBoundedUnderPreemptReplace is the regression test for the
// tombstone-cancel bloat: under repeated preempt/replace cycles the
// pending-event heap must stay at the number of live events (here: the
// completion plus the driving timer), not grow with cycle count.
func TestHeapBoundedUnderPreemptReplace(t *testing.T) {
	k := drainKernel(t)
	task := &Task{ID: 1, Work: time.Hour}
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	k.SetHandler(handlerFns{
		arrived:  func(tk *Task) { _ = k.RunTask(0, tk) },
		finished: func(*Task, CoreID) {},
	})
	cycles := 0
	maxHeap := 0
	var churn func()
	churn = func() {
		if k.loop.activeLen() > maxHeap {
			maxHeap = k.loop.activeLen()
		}
		if cycles >= 20000 {
			_, _ = k.Preempt(0) // park the task so Run drains
			return
		}
		cycles++
		got, err := k.Preempt(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.RunTask(0, got); err != nil {
			t.Fatal(err)
		}
		k.SetTimer(k.Now()+time.Microsecond, churn)
	}
	k.SetTimer(time.Microsecond, churn)
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Live events per cycle: 1 completion + 1 churn timer (+1 sampler at
	// most). The tombstone core peaked at ~cycle count here.
	if maxHeap > 8 {
		t.Fatalf("heap peaked at %d events over %d preempt/replace cycles, want O(1)", maxHeap, cycles)
	}
}

// TestEventLoopOracle drives the event loop with a seeded random mix of
// in-order arrivals (which join the arrival FIFO), out-of-order arrivals
// (which fall back to the heap), timers, fault-class timers, completions,
// cancellations anywhere in either container, and pops, and checks every
// pop against a naive reference: the pending set sorted by (at, class,
// seq). The pending and free counts must match the reference throughout.
func TestEventLoopOracle(t *testing.T) {
	type ref struct {
		at    time.Duration
		class uint8
		seq   uint64
		ev    *event
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := &eventLoop{}
		var pending []ref
		var now, tail time.Duration
		created, popped, fifoPushes, heapArrivals, midCancels := 0, 0, 0, 0, 0
		schedule := func(at time.Duration, kind eventKind, class uint8) {
			if l.freeLen() == 0 {
				created++
			}
			ev := l.scheduleClass(at, kind, class)
			if ev.fslot >= 0 {
				fifoPushes++
			} else if kind == evArrival {
				heapArrivals++
			}
			pending = append(pending, ref{at, class, ev.seq, ev})
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(20); {
			case r < 7: // in-order arrival
				tail = max(tail, now) + time.Duration(rng.Intn(3))*time.Millisecond
				schedule(tail, evArrival, uint8(rng.Intn(2))) // classAdmit or classRun
			case r < 8: // out-of-order arrival: a retry or a clamped AddTask
				schedule(now+time.Duration(rng.Intn(3))*time.Millisecond, evArrival, classRun)
			case r < 10:
				schedule(now+time.Duration(rng.Intn(5))*time.Millisecond, evTimer, classRun)
			case r < 11:
				schedule(now+time.Duration(rng.Intn(5))*time.Millisecond, evTimer, classFault)
			case r < 12:
				schedule(now+time.Duration(rng.Intn(5))*time.Millisecond, evCompletion, classRun)
			case r < 14: // cancel any pending event, FIFO middle included
				if len(pending) == 0 {
					continue
				}
				i := rng.Intn(len(pending))
				if slot := pending[i].ev.fslot; slot >= 0 && slot != l.fhead && slot != (l.fhead+l.fcount-1)&(len(l.fifo)-1) {
					midCancels++
				}
				l.cancel(pending[i].ev)
				pending = slices.Delete(pending, i, i+1)
			default:
				ev := l.peek()
				if len(pending) == 0 {
					if ev != nil {
						t.Fatalf("seed %d op %d: peeked %+v in an empty loop", seed, op, ev)
					}
					continue
				}
				l.pop(ev)
				best := 0
				for i, p := range pending {
					b := pending[best]
					if p.at < b.at || p.at == b.at && (p.class < b.class || p.class == b.class && p.seq < b.seq) {
						best = i
					}
				}
				if ev != pending[best].ev {
					t.Fatalf("seed %d op %d: popped (%v, %d, %d), want (%v, %d, %d)", seed, op,
						ev.at, ev.class, ev.seq, pending[best].at, pending[best].class, pending[best].seq)
				}
				if ev.hidx != -1 || ev.fslot != -1 {
					t.Fatalf("seed %d op %d: popped event still indexed (heap %d, fifo %d)", seed, op, ev.hidx, ev.fslot)
				}
				now = ev.at
				pending = slices.Delete(pending, best, best+1)
				l.release(ev)
				popped++
			}
			if l.activeLen() != len(pending) {
				t.Fatalf("seed %d op %d: activeLen %d, want %d", seed, op, l.activeLen(), len(pending))
			}
			if l.freeLen() != created-len(pending) {
				t.Fatalf("seed %d op %d: freeLen %d, want %d", seed, op, l.freeLen(), created-len(pending))
			}
		}
		if popped == 0 || fifoPushes == 0 || heapArrivals == 0 || midCancels == 0 {
			t.Fatalf("seed %d degenerated: %d pops, %d FIFO pushes, %d heap arrivals, %d mid-FIFO cancels",
				seed, popped, fifoPushes, heapArrivals, midCancels)
		}
	}
}

// TestAbortQueuedArrivalMidFIFO aborts admitted tasks whose arrivals sit
// in the middle of the arrival FIFO: they must never arrive, their event
// structs must return to the pool at once, and the survivors must arrive
// in admission order.
func TestAbortQueuedArrivalMidFIFO(t *testing.T) {
	k := drainKernel(t)
	var arrived []TaskID
	k.SetHandler(handlerFns{
		arrived:  func(tk *Task) { arrived = append(arrived, tk.ID) },
		finished: func(*Task, CoreID) {},
	})
	tasks := make([]*Task, 10)
	for i := range tasks {
		tasks[i] = &Task{ID: TaskID(i + 1), Arrival: time.Duration(i) * time.Millisecond, Work: time.Millisecond}
		if err := k.AdmitTask(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if k.loop.flive != 10 || len(k.loop.heap) != 0 {
		t.Fatalf("in-order admissions: %d in the FIFO, %d in the heap; want all 10 in the FIFO", k.loop.flive, len(k.loop.heap))
	}
	for _, i := range []int{4, 5, 7} {
		if err := k.AbortTask(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if k.loop.activeLen() != 7 || k.loop.freeLen() != 3 {
		t.Fatalf("after 3 aborts: activeLen %d, freeLen %d; want 7 and 3", k.loop.activeLen(), k.loop.freeLen())
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []TaskID{1, 2, 3, 4, 7, 9, 10}
	if !slices.Equal(arrived, want) {
		t.Fatalf("arrived %v, want %v", arrived, want)
	}
	if k.loop.activeLen() != 0 || k.loop.freeLen() != 10 {
		t.Fatalf("drained loop: activeLen %d, freeLen %d; want 0 and 10", k.loop.activeLen(), k.loop.freeLen())
	}
}
