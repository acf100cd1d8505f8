package simkern

import (
	"time"

	"github.com/faassched/faassched/internal/queue"
)

// eventKind discriminates the typed events the kernel loop dispatches.
// The previous core stored one heap-allocated closure per event; kinds +
// inline payloads let the loop run a switch over pooled structs instead,
// so steady-state simulation allocates no events at all.
type eventKind uint8

const (
	evNone       eventKind = iota
	evArrival              // Task reached its arrival time and becomes runnable
	evCompletion           // the running Task finishes its current segment's work
	evTimer                // SetTimer callback: policy ticks, delegation batches
)

// Event ordering classes. In a fully materialized run every arrival event
// is scheduled before the clock starts, so arrivals hold the globally
// smallest sequence numbers and win every same-instant tie against events
// scheduled later at run time. Lazy admission (Kernel.AdmitTask) schedules
// arrivals mid-run, which would hand them large sequence numbers and flip
// those ties — so admitted arrivals carry classAdmit, which orders before
// classRun at the same instant regardless of seq. Everything scheduled
// through the pre-existing paths keeps classRun, where (time, seq) alone
// decides — identical to the ordering before classes existed, which is why
// the committed golden digests stay valid.
const (
	classAdmit uint8 = iota // lazily admitted arrivals: order as if pre-seeded
	classRun                // all other events: plain (time, seq)
	// classFault orders after every same-instant classRun event: fault
	// timers (crash sweeps, invocation timeouts) must observe the world
	// AFTER normal completions and ticks at the same instant, so a task
	// finishing exactly at a crash instant counts as completed, not killed
	// — and the tie resolves identically whatever the relative sequence
	// numbers are, which differ between the flat and sharded dataflows.
	// With no fault timers scheduled the class is never used, which is why
	// the committed golden digests stay valid.
	classFault
)

// event is one scheduled occurrence in the simulation. Events are ordered
// by (time, class, sequence) so ties resolve in scheduling order — see the
// class constants above — making runs deterministic. Payload fields are a
// union discriminated by kind.
type event struct {
	at    time.Duration
	seq   uint64
	kind  eventKind
	class uint8
	hidx  int // heap slot maintained by queue.IndexedHeap; NoHeapIndex when out

	task *Task   // evArrival, evCompletion
	fn   func()  // evTimer
	id   TimerID // evTimer
}

// SetHeapIndex implements queue.HeapIndexed.
func (e *event) SetHeapIndex(i int) { e.hidx = i }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// TimerID identifies a kernel timer created with SetTimer.
type TimerID uint64

// eventLoop owns the pending-event heap and the free list. Cancelled and
// fired events return to the free list, so a long simulation reuses a
// small working set of event structs; cancellation is an O(log n) heap
// removal, keeping the heap at exactly the number of live events (the
// tombstone scheme it replaces bloated the heap under preemption churn).
type eventLoop struct {
	heap *queue.IndexedHeap[*event]
	free []*event
	seq  uint64
}

func newEventLoop() *eventLoop {
	return &eventLoop{heap: queue.NewIndexedHeap[*event](eventLess)}
}

// schedule enqueues a blank classRun event of the given kind at time at
// and returns it for payload assignment and cancellation. The sequence
// counter advances exactly once per call, preserving the (time, seq)
// tie-break order of the closure-based core this replaces.
func (l *eventLoop) schedule(at time.Duration, kind eventKind) *event {
	return l.scheduleClass(at, kind, classRun)
}

// scheduleClass is schedule with an explicit ordering class; the lazy
// admission path uses it to file arrivals under classAdmit.
func (l *eventLoop) scheduleClass(at time.Duration, kind eventKind, class uint8) *event {
	l.seq++
	var ev *event
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = l.seq
	ev.kind = kind
	ev.class = class
	l.heap.Push(ev)
	return ev
}

// cancel removes a pending event from the heap and recycles it. The caller
// must drop its reference: the struct is reused by a later schedule.
func (l *eventLoop) cancel(ev *event) {
	if _, ok := l.heap.Remove(ev.hidx); !ok {
		return
	}
	l.release(ev)
}

// release clears payload references and returns ev to the free list.
func (l *eventLoop) release(ev *event) {
	ev.kind = evNone
	ev.class = classRun
	ev.task = nil
	ev.fn = nil
	ev.id = 0
	ev.hidx = queue.NoHeapIndex
	l.free = append(l.free, ev)
}

// next pops the earliest pending event, or nil when drained. The caller
// must release it after copying the payload out.
func (l *eventLoop) next() *event {
	ev, ok := l.heap.Pop()
	if !ok {
		return nil
	}
	return ev
}

// peek returns the earliest pending event without removing it, or nil
// when drained.
func (l *eventLoop) peek() *event {
	ev, ok := l.heap.Peek()
	if !ok {
		return nil
	}
	return ev
}

// activeLen returns the number of pending events (heap-bound tests).
func (l *eventLoop) activeLen() int { return l.heap.Len() }

// freeLen returns the current free-list size (pool-reuse tests).
func (l *eventLoop) freeLen() int { return len(l.free) }
