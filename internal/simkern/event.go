package simkern

import "time"

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
	hidx  int // heap slot; -1 when not in the heap
	fslot int // arrival FIFO ring slot; -1 when not in the FIFO

	task *Task   // evArrival, evCompletion
	fn   func()  // evTimer
	id   TimerID // evTimer
}

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

// eventLoop owns the pending events and the free list. Pending events live
// in one of two ordered containers:
//
//   - the arrival FIFO, a ring of arrival events in (time, class, seq)
//     order. Every admission path admits in arrival order, so nearly all
//     of them join its tail in O(1) instead of sifting through a heap of
//     their own not-yet-due peers (DESIGN.md §18);
//   - the heap, a binary min-heap of everything else: completions,
//     timers, and the rare arrival that orders before the FIFO's tail (a
//     fault retry, a clamped AddTask).
//
// peek takes the smaller of the two heads, so the pop order is
// the one strict (time, class, seq) order whichever container an event
// sits in. Cancelled and fired events return to the free list, so a long
// simulation reuses a small working set of event structs; cancellation is
// a true removal from either container, keeping the pending count at
// exactly the number of live events (the tombstone scheme the heap
// replaced bloated it under preemption churn).
type eventLoop struct {
	heap []*event
	free []*event
	seq  uint64

	// fifo is a power-of-two ring. Its fcount slots from fhead hold flive
	// events and, between them, nil holes left by cancellations; the head
	// and tail slots always hold live events, so neither end is a hole.
	fifo   []*event
	fhead  int
	fcount int
	flive  int
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
		ev = &event{hidx: -1, fslot: -1}
	}
	ev.at = at
	ev.seq = l.seq
	ev.kind = kind
	ev.class = class
	// The new event holds the largest seq, so it orders after the tail
	// unless its (time, class) is smaller.
	if kind == evArrival && (l.flive == 0 || !eventLess(ev, l.fifo[(l.fhead+l.fcount-1)&(len(l.fifo)-1)])) {
		l.pushFIFO(ev)
	} else {
		l.pushHeap(ev)
	}
	return ev
}

// cancel removes a pending event from its container and recycles it. The
// caller must drop its reference: the struct is reused by a later
// schedule.
func (l *eventLoop) cancel(ev *event) {
	switch {
	case ev.fslot >= 0:
		l.removeFIFO(ev.fslot)
	case ev.hidx >= 0:
		l.removeHeap(ev.hidx)
	default:
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
	l.free = append(l.free, ev)
}

// pop removes ev, the event peek just returned, from the head of its
// container. The caller must release it after copying the payload out.
func (l *eventLoop) pop(ev *event) {
	if ev.fslot >= 0 {
		l.removeFIFO(l.fhead)
	} else {
		l.removeHeap(0)
	}
}

// peek returns the earliest pending event without removing it, or nil
// when drained.
func (l *eventLoop) peek() *event {
	var h *event
	if len(l.heap) > 0 {
		h = l.heap[0]
	}
	if l.flive == 0 {
		return h
	}
	if f := l.fifo[l.fhead]; h == nil || eventLess(f, h) {
		return f
	}
	return h
}

// activeLen returns the number of pending events (heap-bound tests).
func (l *eventLoop) activeLen() int { return len(l.heap) + l.flive }

// freeLen returns the current free-list size (pool-reuse tests).
func (l *eventLoop) freeLen() int { return len(l.free) }

// pushFIFO appends ev at the ring's tail, doubling the ring when full.
func (l *eventLoop) pushFIFO(ev *event) {
	if l.fcount == len(l.fifo) {
		l.growFIFO()
	}
	slot := (l.fhead + l.fcount) & (len(l.fifo) - 1)
	l.fifo[slot] = ev
	ev.fslot = slot
	l.fcount++
	l.flive++
}

// growFIFO moves the ring's slots, holes included, to the front of a ring
// twice the size and renumbers the live events' slots.
func (l *eventLoop) growFIFO() {
	ring := make([]*event, max(2*len(l.fifo), 16))
	mask := len(l.fifo) - 1
	for i := 0; i < l.fcount; i++ {
		ev := l.fifo[(l.fhead+i)&mask]
		ring[i] = ev
		if ev != nil {
			ev.fslot = i
		}
	}
	l.fifo = ring
	l.fhead = 0
}

// removeFIFO takes the event at ring slot out of the FIFO. A middle slot
// becomes a hole; removing the head or the tail also trims the holes
// behind it, so both ends stay live.
func (l *eventLoop) removeFIFO(slot int) {
	l.fifo[slot].fslot = -1
	l.fifo[slot] = nil
	l.flive--
	mask := len(l.fifo) - 1
	for l.fcount > 0 && l.fifo[l.fhead] == nil {
		l.fhead = (l.fhead + 1) & mask
		l.fcount--
	}
	for l.fcount > 0 && l.fifo[(l.fhead+l.fcount-1)&mask] == nil {
		l.fcount--
	}
}

// pushHeap adds ev to the heap.
func (l *eventLoop) pushHeap(ev *event) {
	l.heap = append(l.heap, ev)
	l.up(len(l.heap) - 1)
}

// removeHeap takes the event at heap slot i out of the heap: the last
// event fills the slot and sifts whichever way restores heap order.
func (l *eventLoop) removeHeap(i int) {
	h := l.heap
	h[i].hidx = -1
	last := len(h) - 1
	moved := h[last]
	h[last] = nil
	l.heap = h[:last]
	if i < last {
		h[i] = moved
		moved.hidx = i
		l.down(i)
		l.up(moved.hidx)
	}
}

// up and down sift with a hole instead of pairwise swaps: the displaced
// event is held aside while others shift into the hole, so each moved
// event gets exactly one slot write and one index write per level.

func (l *eventLoop) up(i int) {
	h := l.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.hidx = i
		i = parent
	}
	h[i] = ev
	ev.hidx = i
}

func (l *eventLoop) down(i int) {
	h := l.heap
	n := len(h)
	ev := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && eventLess(h[right], h[left]) {
			smallest = right
		}
		c := h[smallest]
		if !eventLess(c, ev) {
			break
		}
		h[i] = c
		c.hidx = i
		i = smallest
	}
	h[i] = ev
	ev.hidx = i
}
