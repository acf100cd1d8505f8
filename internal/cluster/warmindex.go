// Warm-instance index: the idle-warm side of the fleet load index
// (DESIGN.md §12). warmFirstDispatch used to test HasWarm on every
// candidate per arrival — an O(servers · pool) scan. The index keeps, per
// funcKey, a bitmap of servers currently holding at least one idle
// unexpired instance of that function, maintained event-driven: an
// instance becomes idle-warm at its booked freeAt and stops at its
// expireAt, so both transitions go into a lazy min-heap drained by
// advance(now). Pool mutations (warm-hit rebooking, budget eviction,
// server teardown) bump the instance's seq, invalidating its pending
// transitions, and re-register fresh ones. A pick then walks only the
// set bits of one function's bitmap — servers actually holding warm
// state — instead of the fleet.
package cluster

import (
	"math/bits"
	"time"
)

// warmEvent is one pending idle-warm transition for an instance:
// dead=false adds the instance to the idle-warm set at its freeAt,
// dead=true removes it at its expireAt. seq pins the event to one
// booking of the instance.
type warmEvent struct {
	at   time.Duration
	inst *WarmInstance
	seq  uint32
	dead bool
}

type warmEventHeap []warmEvent

func (h *warmEventHeap) push(e warmEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *warmEventHeap) pop() warmEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = warmEvent{} // release the instance pointer
	*h = s[:last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].at < s[m].at {
			m = l
		}
		if r < len(s) && s[r].at < s[m].at {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// warmSet is one function's idle-warm footprint: which servers hold at
// least one idle unexpired instance (bitmap, walked in ascending server
// order for deterministic picks) and how many such instances each holds.
type warmSet struct {
	words []uint64
	count map[int32]int32
}

func (ws *warmSet) add(server int32) {
	ws.count[server]++
	if ws.count[server] == 1 {
		w := int(server >> 6)
		for len(ws.words) <= w {
			ws.words = append(ws.words, 0)
		}
		ws.words[w] |= 1 << (uint(server) & 63)
	}
}

func (ws *warmSet) del(server int32) {
	ws.count[server]--
	if ws.count[server] == 0 {
		delete(ws.count, server)
		ws.words[server>>6] &^= 1 << (uint(server) & 63)
	}
}

// warmIndex tracks every function's warmSet as of now. Like the load
// index it only moves forward in time.
type warmIndex struct {
	now    time.Duration
	events warmEventHeap
	sets   map[funcKey]*warmSet
}

func newWarmIndex() *warmIndex {
	return &warmIndex{sets: map[funcKey]*warmSet{}}
}

func (x *warmIndex) set(key funcKey) *warmSet {
	ws := x.sets[key]
	if ws == nil {
		ws = &warmSet{count: map[int32]int32{}}
		x.sets[key] = ws
	}
	return ws
}

// advance applies idle-warm transitions up to and including t.
func (x *warmIndex) advance(t time.Duration) {
	if t < x.now {
		return
	}
	x.now = t
	for len(x.events) > 0 && x.events[0].at <= t {
		e := x.events.pop()
		if e.seq != e.inst.seq {
			continue // instance rebooked/evicted since; transitions superseded
		}
		if e.dead {
			x.set(e.inst.key).del(e.inst.server)
		} else {
			x.set(e.inst.key).add(e.inst.server)
		}
	}
}

// track registers a freshly booked instance's future transitions. An
// instance that expires the moment it frees (run-don't-retain overflow)
// never enters the idle-warm set; a never-expiring one never leaves it.
func (x *warmIndex) track(in *WarmInstance) {
	if in.expireAt <= in.freeAt {
		return
	}
	x.events.push(warmEvent{at: in.freeAt, inst: in, seq: in.seq, dead: false})
	if in.expireAt != noExpiry {
		x.events.push(warmEvent{at: in.expireAt, inst: in, seq: in.seq, dead: true})
	}
}

// retire removes in from the idle-warm set if it is currently counted
// and invalidates its pending transitions — called before a warm-hit
// rebooking, a budget eviction, or a server teardown mutates it.
func (x *warmIndex) retire(in *WarmInstance) {
	if in.freeAt <= x.now && x.now < in.expireAt {
		x.set(in.key).del(in.server)
	}
	in.seq++
}

// best returns the least-loaded eligible server holding an idle warm
// instance for key at the index's current instant — the same winner, by
// the same (load, index) tie-break, as the linear HasWarm scan over the
// full candidate slice. ok=false means no warm candidate exists.
func (x *warmIndex) best(key funcKey, li *loadIndex) (int, bool) {
	ws := x.sets[key]
	if ws == nil {
		return -1, false
	}
	best, bestLoad, found := -1, time.Duration(0), false
	for w, word := range ws.words {
		for word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if !li.elig[s] {
				continue
			}
			if load := li.loadOf(s); !found || load < bestLoad {
				best, bestLoad, found = s, load, true
			}
		}
	}
	return best, found
}
