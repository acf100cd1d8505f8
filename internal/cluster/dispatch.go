package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/faassched/faassched/internal/workload"
)

// Dispatch names a cluster-level dispatch policy: the rule the front-end
// load balancer uses to route each arriving invocation to one server.
type Dispatch string

// Available dispatch policies.
const (
	// DispatchRandom routes uniformly at random (seeded, reproducible).
	DispatchRandom Dispatch = "random"
	// DispatchRoundRobin cycles through servers in index order.
	DispatchRoundRobin Dispatch = "round-robin"
	// DispatchLeastLoaded routes to the server with the least outstanding
	// dispatched work at the invocation's arrival instant.
	DispatchLeastLoaded Dispatch = "least-loaded"
	// DispatchJoinIdleQueue routes to the server that has been idle
	// longest; when no server is idle it falls back to a seeded random
	// choice (classic JIQ, Lu et al.).
	DispatchJoinIdleQueue Dispatch = "join-idle-queue"
)

// Dispatches lists every dispatch policy in stable order.
func Dispatches() []Dispatch {
	return []Dispatch{
		DispatchRandom, DispatchRoundRobin, DispatchLeastLoaded, DispatchJoinIdleQueue,
	}
}

// FleetModel is the dispatcher's causal view of per-server load. Real
// front-ends never see the instantaneous core-level state of every server;
// they track what they have dispatched. The model treats each server as
// Cores FIFO lanes: an invocation routed to a server occupies the lane
// that frees earliest, from max(arrival, laneFree) until +Duration. This
// keeps routing deterministic and independent of how the per-server
// simulations interleave, which is what lets servers simulate
// concurrently (see DESIGN.md §5). The autoscale layer grows the model
// mid-run through AddServer; a fixed fleet never does.
type FleetModel struct {
	cores int
	// laneFree[server][lane] is when the lane frees. A starting-fleet
	// server's lanes are allocated at its first booking: until then they
	// are all free from time zero, which a nil slice reads as.
	laneFree [][]time.Duration
	elig     []bool // the indexed dispatch set (see SetEligible)
	eligN    int
	idx      *loadIndex // load index (DESIGN.md §12); nil until first indexed read
}

// NewFleetModel returns a model of the given fixed starting fleet; every
// server's lanes are free from time zero and every server is eligible
// for indexed dispatch.
func NewFleetModel(servers, cores int) *FleetModel {
	m := &FleetModel{
		cores:    cores,
		laneFree: make([][]time.Duration, servers),
		elig:     make([]bool, servers),
		eligN:    servers,
	}
	for s := range m.elig {
		m.elig[s] = true
	}
	return m
}

// index returns the load index advanced to now, materializing it from
// the lane model on first use. Fleets whose dispatch policy and scaling
// never consult the index (random or round-robin routing over a fixed
// fleet) therefore pay none of its per-booking maintenance.
func (m *FleetModel) index(now time.Duration) *loadIndex {
	if m.idx == nil {
		m.idx = buildLoadIndex(m, now)
	}
	m.idx.advance(now)
	return m.idx
}

// Servers returns the number of modeled servers.
func (m *FleetModel) Servers() int { return len(m.laneFree) }

// Cores returns the per-server lane count.
func (m *FleetModel) Cores() int { return m.cores }

// AddServer grows the fleet by one server whose lanes free at readyAt (a
// server cannot have run anything before it finished spinning up). It
// returns the new server's index. Added servers start outside the
// indexed dispatch set; the autoscaler opts them in via SetEligible when
// they activate.
func (m *FleetModel) AddServer(readyAt time.Duration) int {
	lanes := make([]time.Duration, m.cores)
	for l := range lanes {
		lanes[l] = readyAt
	}
	m.laneFree = append(m.laneFree, lanes)
	m.elig = append(m.elig, false)
	if m.idx != nil {
		m.idx.addServer(readyAt)
	}
	return len(m.laneFree) - 1
}

// SetEligible marks server s in or out of the indexed dispatch set as of
// decision time now. The caller must keep this set equal to the
// candidate slice it passes to Pick; the fixed fleets never call it (the
// whole starting fleet is eligible), the autoscaler calls it at activate
// and at drain.
func (m *FleetModel) SetEligible(s int, eligible bool, now time.Duration) {
	if m.elig[s] == eligible {
		return
	}
	if m.idx != nil {
		m.idx.advance(now) // drain s's expiries under its old eligibility
	}
	m.elig[s] = eligible
	if eligible {
		m.eligN++
	} else {
		m.eligN--
	}
	if m.idx != nil {
		m.idx.setEligible(s, eligible)
	}
}

// EligibleCount returns the size of the indexed dispatch set.
func (m *FleetModel) EligibleCount() int { return m.eligN }

// EligibleBusyLanes returns Σ BusyLanes(s, now) over the eligible set in
// O(expired lanes) — the autoscaler's utilization-signal numerator
// without the per-arrival fleet scan.
func (m *FleetModel) EligibleBusyLanes(now time.Duration) int {
	return int(m.index(now).eligBusy)
}

// Outstanding returns server s's dispatched-but-unfinished work at time now
// under the lane model.
func (m *FleetModel) Outstanding(s int, now time.Duration) time.Duration {
	var sum time.Duration
	for _, free := range m.laneFree[s] {
		if free > now {
			sum += free - now
		}
	}
	return sum
}

// BusyLanes returns how many of server s's lanes are still occupied at
// time now — the autoscaler's utilization signal numerator.
func (m *FleetModel) BusyLanes(s int, now time.Duration) int {
	n := 0
	for _, free := range m.laneFree[s] {
		if free > now {
			n++
		}
	}
	return n
}

// IdleSince returns when server s last became idle (the instant its last
// lane freed) and whether it is idle at time now.
func (m *FleetModel) IdleSince(s int, now time.Duration) (time.Duration, bool) {
	var last time.Duration
	for _, free := range m.laneFree[s] {
		if free > now {
			return 0, false
		}
		if free > last {
			last = free
		}
	}
	return last, true
}

// Assign books inv onto server s's earliest-freeing lane and returns the
// booked completion instant (start + service demand under the lane model).
func (m *FleetModel) Assign(s int, inv workload.Invocation) time.Duration {
	return m.AssignDemand(s, inv.Arrival, inv.Duration)
}

// AssignDemand is Assign with an explicit service demand, for callers
// that inflate an invocation's demand — the cold-start model adds the
// instance spin-up latency on cold placements.
func (m *FleetModel) AssignDemand(s int, arrival, demand time.Duration) time.Duration {
	if m.idx != nil {
		m.idx.advance(arrival) // expire lanes before one of them changes
	}
	lanes := m.laneFree[s]
	if lanes == nil {
		lanes = make([]time.Duration, m.cores)
		m.laneFree[s] = lanes
	}
	best := 0
	for l := 1; l < len(lanes); l++ {
		if lanes[l] < lanes[best] {
			best = l
		}
	}
	start := arrival
	if lanes[best] > start {
		start = lanes[best]
	}
	old := lanes[best]
	lanes[best] = start + demand
	if m.idx != nil {
		m.idx.assigned(s, best, old, lanes[best])
	}
	return lanes[best]
}

// Dispatcher routes one invocation at a time. Pick is called in arrival
// order with the eligible servers in ascending index order; the caller
// books the chosen server into the shared FleetModel afterwards, so
// implementations observe the load their own earlier decisions created.
// A fixed fleet passes every server on every call; the autoscale layer
// passes only the ready, non-draining subset — with the full set the
// decisions (and consumed random numbers) are identical to the fixed-fleet
// dispatcher, which is what pins the min=max golden digests.
//
// The load-dependent policies answer from the fleet load index when the
// candidate slice is the model's eligible set (the routing loops and the
// autoscaler maintain that invariant — see FleetModel.SetEligible); any
// other subset takes the original linear scan, which remains exact.
type Dispatcher interface {
	Pick(inv workload.Invocation, candidates []int) int
}

type randomDispatch struct {
	rng *rand.Rand
}

func (d *randomDispatch) Pick(_ workload.Invocation, candidates []int) int {
	return candidates[d.rng.Intn(len(candidates))]
}

type roundRobinDispatch struct {
	next int
}

func (d *roundRobinDispatch) Pick(_ workload.Invocation, candidates []int) int {
	s := candidates[d.next%len(candidates)]
	d.next = (d.next + 1) % len(candidates)
	return s
}

type leastLoadedDispatch struct {
	model *FleetModel
}

func (d *leastLoadedDispatch) Pick(inv workload.Invocation, candidates []int) int {
	if ix := d.model.index(inv.Arrival); ix.usable(len(candidates), inv.Arrival) {
		if s, ok := ix.leastLoaded(); ok {
			return s
		}
	}
	// Linear fallback for candidate slices that are not the eligible set.
	best, bestLoad := candidates[0], time.Duration(-1)
	for _, s := range candidates {
		load := d.model.Outstanding(s, inv.Arrival)
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = s, load
		}
	}
	return best
}

type joinIdleQueueDispatch struct {
	model *FleetModel
	rng   *rand.Rand
}

func (d *joinIdleQueueDispatch) Pick(inv workload.Invocation, candidates []int) int {
	if ix := d.model.index(inv.Arrival); ix.usable(len(candidates), inv.Arrival) {
		if s, ok := ix.longestIdle(); ok {
			return s
		}
		// No eligible server idle: same random fallback, same RNG stream,
		// as the linear scan below finding no idle candidate.
		return candidates[d.rng.Intn(len(candidates))]
	}
	best, bestSince, found := 0, time.Duration(0), false
	for _, s := range candidates {
		since, idle := d.model.IdleSince(s, inv.Arrival)
		if !idle {
			continue
		}
		if !found || since < bestSince {
			best, bestSince, found = s, since, true
		}
	}
	if found {
		return best
	}
	return candidates[d.rng.Intn(len(candidates))]
}

// NewDispatcher constructs the dispatcher for d over servers sharing model.
func NewDispatcher(d Dispatch, seed int64, model *FleetModel) (Dispatcher, error) {
	switch d {
	case DispatchRandom:
		return &randomDispatch{rng: rand.New(rand.NewSource(seed))}, nil
	case DispatchRoundRobin:
		return &roundRobinDispatch{}, nil
	case DispatchLeastLoaded:
		return &leastLoadedDispatch{model: model}, nil
	case DispatchJoinIdleQueue:
		return &joinIdleQueueDispatch{model: model, rng: rand.New(rand.NewSource(seed))}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q (have %v)", d, Dispatches())
	}
}
