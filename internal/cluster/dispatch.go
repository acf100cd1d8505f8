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
	cores   int
	servers int
	// lanes holds every server's lane-free instants, cores per server, in
	// pages of pageLen servers (DESIGN.md §12). A page is allocated at the
	// first booking onto one of its servers: until then its lanes are all
	// free from time zero, which a nil page reads as.
	lanes [][]time.Duration
	// out holds the servers outside the indexed dispatch set (see
	// SetEligible). It grows only to hold a member, and servers past its
	// end are eligible, so a fixed fleet keeps it empty.
	out   serverSet
	eligN int
	idx   *loadIndex // load index (DESIGN.md §12); nil until first indexed read
}

// NewFleetModel returns a model of the given fixed starting fleet; every
// server's lanes are free from time zero and every server is eligible
// for indexed dispatch.
func NewFleetModel(servers, cores int) *FleetModel {
	return &FleetModel{
		cores:   cores,
		servers: servers,
		lanes:   make([][]time.Duration, pageCount(servers)),
		eligN:   servers,
	}
}

// laneFree returns server s's lanes, laneFree(s)[lane] being when the
// lane frees, or nil while s's page is unallocated: every lane free from
// time zero.
func (m *FleetModel) laneFree(s int) []time.Duration {
	pg := m.lanes[s>>pageShift]
	if pg == nil {
		return nil
	}
	o := (s & pageMask) * m.cores
	return pg[o : o+m.cores : o+m.cores]
}

// bookLanes is laneFree for a booking: it allocates s's page.
func (m *FleetModel) bookLanes(s int) []time.Duration {
	if m.lanes[s>>pageShift] == nil {
		m.lanes[s>>pageShift] = make([]time.Duration, pageLen*m.cores)
	}
	return m.laneFree(s)
}

// eligible reports whether server s is in the indexed dispatch set.
func (m *FleetModel) eligible(s int) bool {
	return s>>6 >= len(m.out.words) || !m.out.has(s)
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
func (m *FleetModel) Servers() int { return m.servers }

// Cores returns the per-server lane count.
func (m *FleetModel) Cores() int { return m.cores }

// AddServer grows the fleet by one server whose lanes free at readyAt (a
// server cannot have run anything before it finished spinning up). It
// returns the new server's index. Added servers start outside the
// indexed dispatch set; the autoscaler opts them in via SetEligible when
// they activate.
func (m *FleetModel) AddServer(readyAt time.Duration) int {
	s := m.servers
	m.servers++
	if len(m.lanes) < pageCount(m.servers) {
		m.lanes = append(m.lanes, nil)
	}
	lanes := m.bookLanes(s)
	for l := range lanes {
		lanes[l] = readyAt
	}
	m.out.grow(s + 1)
	m.out.add(s)
	if m.idx != nil {
		m.idx.addServer(readyAt)
	}
	return s
}

// SetEligible marks server s in or out of the indexed dispatch set as of
// decision time now. The caller must keep this set equal to the
// candidate slice it passes to Pick; the fixed fleets never call it (the
// whole starting fleet is eligible), the autoscaler calls it at activate
// and at drain.
func (m *FleetModel) SetEligible(s int, eligible bool, now time.Duration) {
	if m.eligible(s) == eligible {
		return
	}
	if m.idx != nil {
		m.idx.advance(now) // drain s's expiries under its old eligibility
	}
	if eligible {
		m.out.remove(s)
		m.eligN++
	} else {
		m.out.grow(s + 1)
		m.out.add(s)
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
	for _, free := range m.laneFree(s) {
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
	for _, free := range m.laneFree(s) {
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
	for _, free := range m.laneFree(s) {
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
	lanes := m.bookLanes(s)
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
// A nil candidate slice names every server of the model, all of them
// eligible: a fixed fleet with no server down passes nil rather than a
// list of every index. The autoscale layer passes only the ready,
// non-draining subset — with the full set the decisions (and consumed
// random numbers) are identical to the fixed-fleet dispatcher, which is
// what pins the min=max golden digests.
//
// The load-dependent policies answer from the fleet load index when the
// candidate slice is the model's eligible set (the routing loops and the
// autoscaler maintain that invariant — see FleetModel.SetEligible); any
// other subset takes the original linear scan, which remains exact.
type Dispatcher interface {
	Pick(inv workload.Invocation, candidates []int) int
}

// nCandidates is how many servers candidates names: every server of the
// model when it is nil.
func (m *FleetModel) nCandidates(candidates []int) int {
	if candidates == nil {
		return m.servers
	}
	return len(candidates)
}

// candidate returns the i-th server candidates names.
func candidate(candidates []int, i int) int {
	if candidates == nil {
		return i
	}
	return candidates[i]
}

type randomDispatch struct {
	model *FleetModel
	rng   *rand.Rand
}

func (d *randomDispatch) Pick(_ workload.Invocation, candidates []int) int {
	return candidate(candidates, d.rng.Intn(d.model.nCandidates(candidates)))
}

type roundRobinDispatch struct {
	model *FleetModel
	next  int
}

func (d *roundRobinDispatch) Pick(_ workload.Invocation, candidates []int) int {
	n := d.model.nCandidates(candidates)
	s := candidate(candidates, d.next%n)
	d.next = (d.next + 1) % n
	return s
}

type leastLoadedDispatch struct {
	model *FleetModel
}

func (d *leastLoadedDispatch) Pick(inv workload.Invocation, candidates []int) int {
	n := d.model.nCandidates(candidates)
	if ix := d.model.index(inv.Arrival); ix.usable(n, inv.Arrival) {
		if s, ok := ix.leastLoaded(); ok {
			return s
		}
	}
	// Linear fallback for candidate slices that are not the eligible set.
	best, bestLoad := candidate(candidates, 0), time.Duration(-1)
	for i := range n {
		s := candidate(candidates, i)
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
	n := d.model.nCandidates(candidates)
	if ix := d.model.index(inv.Arrival); ix.usable(n, inv.Arrival) {
		if s, ok := ix.longestIdle(); ok {
			return s
		}
		// No eligible server idle: same random fallback, same RNG stream,
		// as the linear scan below finding no idle candidate.
		return candidate(candidates, d.rng.Intn(n))
	}
	best, bestSince, found := 0, time.Duration(0), false
	for i := range n {
		s := candidate(candidates, i)
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
	return candidate(candidates, d.rng.Intn(n))
}

// NewDispatcher constructs the dispatcher for d over servers sharing model.
func NewDispatcher(d Dispatch, seed int64, model *FleetModel) (Dispatcher, error) {
	switch d {
	case DispatchRandom:
		return &randomDispatch{model: model, rng: rand.New(rand.NewSource(seed))}, nil
	case DispatchRoundRobin:
		return &roundRobinDispatch{model: model}, nil
	case DispatchLeastLoaded:
		return &leastLoadedDispatch{model: model}, nil
	case DispatchJoinIdleQueue:
		return &joinIdleQueueDispatch{model: model, rng: rand.New(rand.NewSource(seed))}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q (have %v)", d, Dispatches())
	}
}
