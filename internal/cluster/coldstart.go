// Cold-start model: per-function instance state on every server. Real
// FaaS platforms keep a finished function's microVM warm for a keep-alive
// interval so a follow-up invocation of the same function skips the
// instance spin-up; the dominant real-world serverless cost effect is
// exactly this cold/warm split (SFS; Kaffes et al., "Practical Scheduling
// for Real-World Serverless Computing"). The model here lives at the
// dispatch layer, next to the FleetModel: it is causal bookkeeping the
// front-end can maintain from its own routing decisions, updated
// single-threaded in arrival order, so Phase-1 routing stays
// deterministic and the per-server simulations stay independent.
//
// An instance's lifecycle under the lane model: an invocation routed to a
// server either reuses an idle warm instance (warm hit, no penalty) or
// spins up a cold one, paying ColdStartConfig.Latency as extra service
// demand — init work burns CPU on the instance, which is what makes the
// OS scheduler and the start path interact. The instance is busy until
// the booked completion, then idles for KeepAlive before eviction. A
// per-server memory budget bounds how much warm state a server may
// retain; when registering a new instance would exceed it, idle
// instances are evicted earliest-expiry-first, and if the budget still
// cannot be met (everything else is busy) the new instance runs but is
// not retained.
package cluster

import (
	"fmt"
	"math"
	"time"

	"github.com/faassched/faassched/internal/workload"
)

// DefaultColdStartLatency is the instance spin-up demand when the model
// is enabled without an explicit latency — a Firecracker-class microVM
// boot plus runtime init, in the few-hundred-ms band the literature
// reports.
const DefaultColdStartLatency = 250 * time.Millisecond

// DefaultKeepAlive is the idle TTL before a warm instance is evicted,
// matching the ballpark fixed keep-alive of the large public platforms.
const DefaultKeepAlive = 10 * time.Minute

// ColdStartConfig configures the per-function warm-instance model. The
// zero value disables it entirely (no pools, no penalties, byte-for-byte
// the pre-model behavior).
type ColdStartConfig struct {
	// Latency is the instance spin-up penalty added to an invocation's
	// service demand when no idle warm instance of its function exists on
	// the chosen server. Zero disables the whole model.
	Latency time.Duration
	// KeepAlive is how long an idle warm instance survives before
	// eviction. Zero or negative means instances never expire.
	KeepAlive time.Duration
	// PoolMemMB bounds each server's total tracked instance memory
	// (busy + idle). Zero or negative means unbounded.
	PoolMemMB int
	// WarmFirst makes the dispatcher prefer candidates holding an idle
	// warm instance for the invocation's function (least-loaded among
	// them), falling back to the configured Dispatch policy for cold
	// placement.
	WarmFirst bool
}

// Enabled reports whether the model is active.
func (c ColdStartConfig) Enabled() bool { return c.Latency > 0 }

// noExpiry stands in for "never evicted" so plain < comparisons work.
const noExpiry = time.Duration(math.MaxInt64)

// funcKey is the identity warm instances are shared under: the explicit
// FuncID when the workload assigns one, else the (FibN, MemMB) bucket.
type funcKey struct {
	funcID int32
	fibN   int32
	memMB  int32
}

func keyOf(inv workload.Invocation) funcKey {
	if inv.FuncID != 0 {
		return funcKey{funcID: inv.FuncID}
	}
	return funcKey{fibN: inv.FibN, memMB: inv.MemMB}
}

// WarmInstance is one tracked instance on one server. It is busy until
// freeAt (the booked completion under the lane model), then idle until
// expireAt; expireAt >= freeAt always holds. stamp is its registration
// order on its server, the explicit tie key of every pool decision.
// prev/next link it into its function's list on that server (next also
// links the free list once it leaves the pool), and slot is its position
// in the server's expiry heap. server and seq exist for the warm index:
// seq advances on every rebooking/eviction so pending index transitions
// for a previous life of the instance are recognizably stale.
type WarmInstance struct {
	key        funcKey
	freeAt     time.Duration
	expireAt   time.Duration
	prev, next *WarmInstance
	stamp      uint64
	memMB      int32
	slot       int32
	server     int32
	seq        uint32
}

// funcList is one function's instances on one server, linked through
// prev/next in registration order.
type funcList struct{ head, tail *WarmInstance }

// serverPool is one server's tracked instances, indexed twice. byKey
// lists each live function's instances in registration order, so a warm
// lookup walks only the arriving function's instances; an entry is
// deleted when its list empties, so the map stays bounded by the
// functions live on the server. expiry is a min-heap on (expireAt,
// stamp), so pruning pops only lapsed instances and budget eviction
// descends only past busy ones. Pools stay small: the memory budget or
// the keep-alive TTL bounds them, and even unbounded they cannot exceed
// the server's peak per-function concurrency times live functions.
type serverPool struct {
	byKey  map[funcKey]funcList
	expiry []*WarmInstance
	memMB  int
	stamps uint64 // registrations so far: the next instance's stamp
}

// expiresBefore orders the expiry heap: earliest expireAt first, earliest
// registration on ties.
func expiresBefore(a, b *WarmInstance) bool {
	return a.expireAt < b.expireAt || (a.expireAt == b.expireAt && a.stamp < b.stamp)
}

func (p *serverPool) swap(i, j int) {
	h := p.expiry
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = int32(i), int32(j)
}

func (p *serverPool) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !expiresBefore(p.expiry[i], p.expiry[parent]) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *serverPool) down(i int) {
	for n := len(p.expiry); ; {
		m, l := i, 2*i+1
		if l < n && expiresBefore(p.expiry[l], p.expiry[m]) {
			m = l
		}
		if r := l + 1; r < n && expiresBefore(p.expiry[r], p.expiry[m]) {
			m = r
		}
		if m == i {
			return
		}
		p.swap(i, m)
		i = m
	}
}

// fix restores heap order around slot i after its key changed.
func (p *serverPool) fix(i int) {
	p.up(i)
	p.down(i)
}

// add registers in as the server's newest instance.
func (p *serverPool) add(in *WarmInstance) {
	in.stamp = p.stamps
	p.stamps++
	if p.byKey == nil {
		p.byKey = map[funcKey]funcList{}
	}
	l := p.byKey[in.key]
	in.prev, in.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = in
	} else {
		l.head = in
	}
	l.tail = in
	p.byKey[in.key] = l
	in.slot = int32(len(p.expiry))
	p.expiry = append(p.expiry, in)
	p.up(int(in.slot))
	p.memMB += int(in.memMB)
}

// remove unlinks in from both indexes.
func (p *serverPool) remove(in *WarmInstance) {
	l := p.byKey[in.key]
	if in.prev != nil {
		in.prev.next = in.next
	} else {
		l.head = in.next
	}
	if in.next != nil {
		in.next.prev = in.prev
	} else {
		l.tail = in.prev
	}
	if l.head == nil {
		delete(p.byKey, in.key)
	} else {
		p.byKey[in.key] = l
	}
	i, last := int(in.slot), len(p.expiry)-1
	if i != last {
		p.swap(i, last)
	}
	p.expiry[last] = nil
	p.expiry = p.expiry[:last]
	if i != last {
		p.fix(i)
	}
	in.prev, in.next, in.slot = nil, nil, -1
	p.memMB -= int(in.memMB)
}

// holds reports whether in is one of the pool's instances.
func (p *serverPool) holds(in *WarmInstance) bool {
	return in.slot >= 0 && int(in.slot) < len(p.expiry) && p.expiry[in.slot] == in
}

// idleMin returns the idle instance (freeAt <= now) least in (expireAt,
// stamp) within the expiry heap's subtree at i, or nil. Heap order lets
// it stop at the first idle instance on every path, so it visits only
// busy instances and their children.
func (p *serverPool) idleMin(i int, now time.Duration) *WarmInstance {
	if i >= len(p.expiry) {
		return nil
	}
	if in := p.expiry[i]; in.freeAt <= now {
		return in
	}
	a, b := p.idleMin(2*i+1, now), p.idleMin(2*i+2, now)
	if b != nil && (a == nil || expiresBefore(b, a)) {
		return b
	}
	return a
}

// warm returns the idle instance of key to reuse at now, or nil. Among
// matches it picks the most recently freed (largest freeAt, earliest
// registration on ties): reusing the hottest instance leaves the rest
// idle longest, the standard keep-alive reuse order. The pool must be
// pruned at now, so every listed instance is unexpired.
func (p *serverPool) warm(key funcKey, now time.Duration) *WarmInstance {
	var best *WarmInstance
	for in := p.byKey[key].head; in != nil; in = in.next {
		if in.freeAt <= now && (best == nil || in.freeAt > best.freeAt) {
			best = in
		}
	}
	return best
}

// WarmPools is the fleet's warm-instance state, indexed by server. Like
// the FleetModel it is updated only from the single-threaded routing
// loop, in arrival order, so decision time never decreases.
type WarmPools struct {
	cfg ColdStartConfig
	// pools holds each server's pool, in pages allocated at the first
	// lookup on one of their servers (DESIGN.md §12).
	pools   pages[serverPool]
	servers int
	widx    *warmIndex    // per-funcKey idle-warm bitmap; nil unless WarmFirst
	free    *WarmInstance // instances that left their pool, linked by next
}

// NewWarmPools returns empty pools for a fleet of the given size. Under
// warm-first dispatch the pools also maintain the warm index so picks
// walk only warm holders instead of every candidate.
func NewWarmPools(cfg ColdStartConfig, servers int) *WarmPools {
	w := &WarmPools{cfg: cfg, pools: newPages[serverPool](servers), servers: servers}
	if cfg.Enabled() && cfg.WarmFirst {
		w.widx = newWarmIndex()
	}
	return w
}

// sync advances the warm index to now before any read or mutation at now.
func (w *WarmPools) sync(now time.Duration) {
	if w.widx != nil {
		w.widx.advance(now)
	}
}

// Servers returns the number of tracked servers.
func (w *WarmPools) Servers() int { return w.servers }

// AddServer grows the fleet by one server with an empty pool (a freshly
// spun-up server has no warm state), returning its index.
func (w *WarmPools) AddServer() int {
	w.servers++
	w.pools.grow(w.servers)
	return w.servers - 1
}

// DropServer destroys server s's warm pool: retiring a server tears down
// its instances, so a later re-launch into the same fleet slot starts
// cold. The slot itself stays valid.
func (w *WarmPools) DropServer(s int) {
	p := w.pools.peek(s)
	for p != nil && len(p.expiry) > 0 {
		in := p.expiry[len(p.expiry)-1]
		if w.widx != nil {
			w.widx.retire(in)
		}
		w.release(p, in)
	}
}

// release removes in from pool p and keeps it for reuse. Recycling is
// safe for the warm index: an instance leaves its pool either retired
// (seq bumped, so its pending transitions are stale) or pruned (both
// transitions already applied), and seq keeps counting across lives.
func (w *WarmPools) release(p *serverPool, in *WarmInstance) {
	p.remove(in)
	in.next, w.free = w.free, in
}

// expireAt computes when an instance finishing at freeAt falls out of
// keep-alive, saturating at noExpiry.
func (w *WarmPools) expireAt(freeAt time.Duration) time.Duration {
	if w.cfg.KeepAlive <= 0 || freeAt > noExpiry-w.cfg.KeepAlive {
		return noExpiry
	}
	return freeAt + w.cfg.KeepAlive
}

// prune evicts server s's instances whose keep-alive lapsed by now
// (expireAt <= now, which implies they are idle, since expireAt >= freeAt)
// and returns the pool.
func (w *WarmPools) prune(s int, now time.Duration) *serverPool {
	w.sync(now)
	p := w.pools.at(s)
	for len(p.expiry) > 0 && p.expiry[0].expireAt <= now {
		// The warm index needs no retire here: both of the instance's
		// transitions are at or before now, so sync already applied them
		// and no pending event can reference it.
		w.release(p, p.expiry[0])
	}
	return p
}

// Warm returns the idle, unexpired instance of inv's function that a
// routing to server s at now reuses, or nil when that routing is a cold
// start. The result is valid only for a Book on s at the same instant.
func (w *WarmPools) Warm(s int, inv workload.Invocation, now time.Duration) *WarmInstance {
	return w.prune(s, now).warm(keyOf(inv), now)
}

// HasWarm reports whether server s holds an idle, unexpired instance of
// inv's function at time now — a routing there would be a warm hit.
func (w *WarmPools) HasWarm(s int, inv workload.Invocation, now time.Duration) bool {
	return w.Warm(s, inv, now) != nil
}

// Book records the routing decision: inv runs on server s from now until
// the booked completion finish (which already includes the cold-start
// penalty when cold). reuse is what Warm returned for s and inv at now:
// non-nil, a warm hit re-busies that instance in place; nil, a cold start
// registers a new instance, evicting idle instances earliest-expiry-first
// (earliest registration on ties) if the memory budget requires it. If
// the budget still cannot be met — every other instance is busy — the
// invocation runs anyway but its instance is not retained (it expires
// the moment it frees). A reuse that is not an idle instance of inv's
// function on s at now is an error, and nothing is booked.
func (w *WarmPools) Book(s int, inv workload.Invocation, now, finish time.Duration, reuse *WarmInstance) error {
	p := w.prune(s, now)
	key := keyOf(inv)
	if reuse != nil {
		if !p.holds(reuse) || reuse.key != key || reuse.freeAt > now {
			return fmt.Errorf("cluster: booking at %v reuses an instance that is not idle on server %d", now, s)
		}
		if w.widx != nil {
			w.widx.retire(reuse)
		}
		reuse.freeAt = finish
		reuse.expireAt = w.expireAt(finish)
		p.fix(int(reuse.slot))
		if w.widx != nil {
			w.widx.track(reuse)
		}
		return nil
	}
	in := w.free
	if in != nil {
		w.free = in.next
	} else {
		in = &WarmInstance{}
	}
	*in = WarmInstance{key: key, freeAt: finish, expireAt: w.expireAt(finish), memMB: inv.MemMB, server: int32(s), seq: in.seq}
	if w.cfg.PoolMemMB > 0 {
		for p.memMB+int(in.memMB) > w.cfg.PoolMemMB {
			evict := p.idleMin(0, now)
			if evict == nil {
				in.expireAt = in.freeAt // run, but do not retain
				break
			}
			if w.widx != nil {
				w.widx.retire(evict)
			}
			w.release(p, evict)
		}
	}
	p.add(in)
	if w.widx != nil {
		w.widx.track(in)
	}
	return nil
}

// WarmCount returns how many instances server s tracks at now (tests).
func (w *WarmPools) WarmCount(s int, now time.Duration) int {
	return len(w.prune(s, now).expiry)
}

// PoolMemMB returns server s's tracked instance memory at now (tests).
func (w *WarmPools) PoolMemMB(s int, now time.Duration) int {
	return w.prune(s, now).memMB
}

// warmFirstDispatch prefers candidates holding an idle warm instance of
// the invocation's function — least-loaded among them, so warm traffic
// still spreads — and falls back to the wrapped policy for cold
// placement. It is locality-aware dispatch in the sense of Kaffes et
// al.: the placement rule, not the invocation, decides where warm state
// gets reused.
type warmFirstDispatch struct {
	inner Dispatcher
	pools *WarmPools
	model *FleetModel
}

func (d *warmFirstDispatch) Pick(inv workload.Invocation, candidates []int) int {
	n := d.model.nCandidates(candidates)
	if w := d.pools.widx; w != nil {
		if ix := d.model.index(inv.Arrival); ix.usable(n, inv.Arrival) {
			// Indexed path: walk only the servers holding idle warm state
			// for this function instead of probing every candidate, then
			// hand cold placement to the wrapped policy — which is itself
			// indexed, so warm-first adds no fleet scan on either branch.
			// Same winner, same RNG/cursor stream, as the linear scan below.
			w.advance(inv.Arrival)
			if s, ok := w.best(keyOf(inv), ix); ok {
				return s
			}
			return d.inner.Pick(inv, candidates)
		}
	}
	best, bestLoad := -1, time.Duration(0)
	for i := range n {
		s := candidate(candidates, i)
		if !d.pools.HasWarm(s, inv, inv.Arrival) {
			continue
		}
		load := d.model.Outstanding(s, inv.Arrival)
		if best < 0 || load < bestLoad {
			best, bestLoad = s, load
		}
	}
	if best >= 0 {
		return best
	}
	return d.inner.Pick(inv, candidates)
}

// WarmFirstDispatcher wraps inner so warm candidates win. The wrapped
// policy's internal state (round-robin cursor, RNG stream) advances only
// on cold placements; warm-first is never part of the digest-pinned
// Dispatches() enum.
func WarmFirstDispatcher(inner Dispatcher, pools *WarmPools, model *FleetModel) Dispatcher {
	return &warmFirstDispatch{inner: inner, pools: pools, model: model}
}
