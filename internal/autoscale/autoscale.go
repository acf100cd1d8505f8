// Package autoscale is the elastic sibling of internal/cluster: a
// streaming dispatcher that consumes a workload.Source directly — no
// materialized slice, no route-everything-first phase — and drives a
// dynamic set of per-server simulation kernels. Servers are launched when
// a utilization or queue-depth signal crosses a scale-up threshold,
// become routable only after a spin-up latency, and are retired by
// draining: routing stops, in-flight tasks finish, then the server shuts
// down. Each server's billed uptime (launch → retire) is tracked, so a
// run reports an infrastructure cost (server-seconds) alongside the
// paper's per-invocation execution cost.
//
// Execution. The fleet runs on the fixed fleet's routing loop
// (cluster.Driver) with this package's controller as its hook: a server
// joins its shard through the driver at activation, carrying its policy,
// sink and terminal fault machine, and a drain — or the closing of a
// crashed server — retires it, which drains its machine at once. The
// controller itself starts no goroutine.
//
// Determinism. The controller's decisions — routing, launches, drains —
// depend only on the arrival stream and the dispatcher's causal lane
// model (cluster.FleetModel), never on simulated server state, so they
// are identical regardless of how the shard goroutines interleave. Scale
// events follow a fixed per-arrival ordering (activations due, then
// routing, then scale-up, then scale-down), and every server is a
// lockstep machine whose lazy admission equals a pre-seeded run of its
// share (DESIGN.md §7), with a sink of its own, so neither the shard
// count nor the partition changes a result. An autoscaler pinned to Min =
// Max = N therefore reproduces cluster.Simulate results bit for bit,
// which the golden digests prove. See DESIGN.md §8.
package autoscale

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// Never marks a lifecycle instant that has not happened (DrainAt on a
// server alive at the end of the run).
const Never = time.Duration(-1)

// Config configures an autoscaled fleet simulation.
type Config struct {
	// Min and Max bound the fleet size. Min servers are provisioned (and
	// ready) at time zero; the controller never drains below Min, and it
	// never launches while the ready, booting, and still-busy draining
	// servers together number Max or more — so the serving fleet never
	// exceeds Max, and billed concurrency can exceed it only by a
	// draining server's execution tail beyond its booked estimate
	// (per-task switch/cache overhead, microseconds). Min must be >= 1.
	// Min == Max pins the fleet and disables scaling entirely.
	Min, Max int
	// Policy picks the scaling signal. Empty means PolicyTargetUtilization.
	Policy ScalePolicy
	// SpinUp is the provisioning latency: a server launched at t serves no
	// invocation arriving before t+SpinUp. Zero means DefaultSpinUp.
	SpinUp time.Duration
	// UpThreshold / DownThreshold override the policy's signal thresholds
	// (zero means the policy default). DownThreshold must stay below
	// UpThreshold — the hysteresis band.
	UpThreshold, DownThreshold float64
	// UpCooldown / DownCooldown space consecutive launches / drains. Zero
	// means the defaults.
	UpCooldown, DownCooldown time.Duration
	// Dispatch routes each invocation among the ready, non-draining
	// servers. Empty means cluster.DispatchLeastLoaded.
	Dispatch cluster.Dispatch
	// Seed drives the randomized dispatch policies. Zero means 1.
	Seed int64
	// Kernel is the per-server machine configuration.
	Kernel simkern.Config
	// Sched returns a fresh per-server scheduling policy. The driver
	// calls it at each server's activation, sequentially on the routing
	// goroutine, in server-index order.
	Sched func() ghost.Policy
	// Ghost configures each server's delegation enclave.
	Ghost ghost.Config
	// Window is the watermark step of the lockstep engine the servers run
	// on (zero means simrun.DefaultWindow). Records do not depend on it
	// (DESIGN.md §7).
	Window time.Duration
	// ColdStart configures the per-function warm-instance model
	// (cluster.ColdStartConfig; DESIGN.md §10). Retiring a server —
	// drained or canceled — destroys its warm pool, so scale-to-zero
	// carries a genuine re-warm penalty. The zero value disables the
	// model and leaves every decision byte-for-byte unchanged.
	ColdStart cluster.ColdStartConfig
	// Obs enables the observability layer (counters, trace export,
	// progress). Nil disables it entirely; observation never alters
	// simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
	// Faults is the deterministic fault plan (DESIGN.md §14). Autoscale
	// runs it in terminal mode: a server's first scheduled crash after its
	// ReadyAt retires the slot for good — residents are killed, the warm
	// pool is destroyed, and the controller launches a cold replacement
	// (cooldown-exempt, still bounded by Max). Timeouts and retries apply
	// per server exactly as in the fixed fleet; straggler plans are
	// rejected (a slot that can be replaced has no slow-window identity).
	// The zero value changes nothing.
	Faults faults.Config
}

// EventKind classifies a scale event.
type EventKind uint8

// Scale event kinds. The declaration order is the fixed event-class
// ordering used to sort same-instant events: a server launched at t can
// become ready at t (zero spin-up is forbidden, but Min servers launch
// ready at time zero) only after its launch, a drain decided at t orders
// after the launch that made the fleet big enough, and retirement is
// always the last thing that happens to a server.
const (
	EventLaunch EventKind = iota // scale-up decision; billing starts
	EventReady                   // spin-up finished; server is routable
	EventDrain                   // scale-down decision; routing stops
	EventRetire                  // last in-flight task done; billing stops
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventLaunch:
		return "launch"
	case EventReady:
		return "ready"
	case EventDrain:
		return "drain"
	case EventRetire:
		return "retire"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the fleet-size timeline.
type Event struct {
	Time   time.Duration
	Kind   EventKind
	Server int
	// Active is the billed fleet size (launched, not yet retired) after
	// this event.
	Active int
}

// Server is one server's lifecycle and share of an autoscaled run.
type Server struct {
	// ServerResult is the server's share, filled by the shard that
	// drains it; its Server field is the launch-order fleet index (also
	// the dispatch index). A boot canceled before activation keeps an
	// empty share.
	cluster.ServerResult
	// LaunchAt is the scale-up decision instant; billing starts here.
	LaunchAt time.Duration
	// ReadyAt is LaunchAt + spin-up; no invocation arriving earlier is
	// ever routed here.
	ReadyAt time.Duration
	// DrainAt is the scale-down decision instant, or Never for servers
	// alive at the end of the run.
	DrainAt time.Duration
	// RetireAt is when billing stops: a drained server retires when its
	// last in-flight task completes, a canceled one at its drain instant,
	// and a surviving server at the fleet-wide makespan (even mid-boot —
	// the run ending kills the launch, like a cancel).
	RetireAt time.Duration
	// Canceled marks a server drained while still booting: it never
	// served, and was billed only for the partial spin-up.
	Canceled bool
	// Crashed marks an unplanned retirement: the fault plan killed the
	// server at DrainAt (billing stops there — a dead machine bills no
	// drain tail), its residents were killed in-kernel, and a cold
	// replacement was launched if Max allowed.
	Crashed bool
	// ColdStarts counts routed invocations that paid the instance
	// spin-up penalty here (zero with the cold-start model disabled).
	ColdStarts int
}

// BilledSeconds is this server's billed uptime in seconds.
func (s *Server) BilledSeconds() float64 { return (s.RetireAt - s.LaunchAt).Seconds() }

// Result is a finished autoscaled fleet simulation.
type Result struct {
	// Dispatch and Policy identify the routing and scaling rules.
	Dispatch cluster.Dispatch
	Policy   ScalePolicy
	// Servers holds every server ever launched, by index.
	Servers []Server
	// Events is the fleet-size timeline, sorted by (time, kind, server).
	Events []Event
	// Routed counts dispatched invocations; Completed + Failed always
	// equals Routed (drain-before-retire never drops an admitted task).
	Routed, Completed, Failed int
	// ColdStarts counts routed invocations that paid the instance
	// spin-up penalty (zero with the cold-start model disabled).
	ColdStarts int
	// Preemptions sums preemptions across the fleet.
	Preemptions int
	// Makespan is the fleet-wide last completion instant.
	Makespan time.Duration
	// PeakServers is the maximum billed fleet size.
	PeakServers int
	// ServerSeconds sums billed uptime across servers — the run's
	// infrastructure cost in server-seconds.
	ServerSeconds float64
	// Stats aggregates the per-server enclaves' full delegation counters
	// (messages, commits, fired vs elided ticks, migrations).
	Stats ghost.Stats
	// KernelEvents sums scheduled kernel events across servers.
	KernelEvents uint64
	// Assignment maps each invocation index to its server, an int32 per
	// invocation, when the run kept exact records (Run, not RunWindowed).
	Assignment []int32
	// Set holds every server's records in global invocation order (record
	// ID k at index k-1), when the run kept exact records; empty otherwise.
	Set metrics.Set
	// Faults aggregates fault-plan activity: Crashes counts unplanned
	// retirements (controller-side), Kills/Retries/GiveUps come from the
	// per-server machines. Zero when Config.Faults is disabled.
	Faults faults.Stats
}

// Crashed counts servers retired by the fault plan.
func (r *Result) Crashed() int {
	n := 0
	for i := range r.Servers {
		if r.Servers[i].Crashed {
			n++
		}
	}
	return n
}

// Launched returns how many servers were ever launched.
func (r *Result) Launched() int { return len(r.Servers) }

// Drained counts servers that were scaled back down (including canceled
// boots).
func (r *Result) Drained() int {
	n := 0
	for i := range r.Servers {
		if r.Servers[i].DrainAt != Never {
			n++
		}
	}
	return n
}

// MeanServers is the time-averaged billed fleet size over the run.
func (r *Result) MeanServers() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.ServerSeconds / r.Makespan.Seconds()
}

// ActiveAt returns the billed fleet size at instant t.
func (r *Result) ActiveAt(t time.Duration) int {
	n := 0
	for i := range r.Servers {
		if s := &r.Servers[i]; s.LaunchAt <= t && t < s.RetireAt {
			n++
		}
	}
	return n
}

// ServerSecondsIn sums billed uptime overlapping [from, to) — the
// per-window infrastructure cost.
func (r *Result) ServerSecondsIn(from, to time.Duration) float64 {
	var sum float64
	for i := range r.Servers {
		s := &r.Servers[i]
		lo, hi := s.LaunchAt, s.RetireAt
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			sum += (hi - lo).Seconds()
		}
	}
	return sum
}

// Timeline renders the billed fleet-size trajectory compactly: the
// provisioned (Min) floor followed by every launch/retire step —
// including scale-up launches at time zero, which are steps, not floor —
// truncated to maxSteps entries (0 means no cap).
func (r *Result) Timeline(maxSteps int) string {
	floor := func(server int) bool {
		s := &r.Servers[server]
		return s.LaunchAt == 0 && s.ReadyAt == 0
	}
	start := 0
	for i := range r.Servers {
		if floor(i) {
			start++
		}
	}
	b := fmt.Appendf(nil, "%d", start)
	steps := 0
	for _, ev := range r.Events {
		if ev.Kind != EventLaunch && ev.Kind != EventRetire {
			continue
		}
		if ev.Kind == EventLaunch && floor(ev.Server) {
			continue
		}
		if maxSteps > 0 && steps >= maxSteps {
			b = append(b, " …"...)
			break
		}
		sign := byte('+')
		if ev.Kind == EventRetire {
			sign = '-'
		}
		b = fmt.Appendf(b, " %c1@%s→%d", sign, ev.Time.Round(time.Second), ev.Active)
		steps++
	}
	return string(b)
}

// serverState is a Server plus the controller's runtime handles.
type serverState struct {
	Server
	// m is the server's member of the driver's engine, from activation on
	// (nil for a boot canceled before it); its results are read after the
	// engine closes.
	m *cluster.Member
	// crashAt is the slot's terminal crash instant from the fault plan
	// (first scheduled crash strictly after ReadyAt), or Never. Fixed at
	// launch; the controller and the in-kernel machine share it.
	crashAt time.Duration
}

// controller is the elastic fleet's hook on the driver's routing loop
// (cluster.Controller), touched only from the caller's goroutine.
type controller struct {
	cfg      Config
	up, down float64
	d        *cluster.Driver
	model    *cluster.FleetModel
	pools    *cluster.WarmPools // the router's; nil unless cfg.ColdStart.Enabled()
	servers  []*serverState
	// candidates are the ready, non-draining server indices, ascending.
	candidates []int
	// pending are launched-but-still-booting server indices, launch order.
	pending []int
	// draining are drained servers that may still hold booked work; they
	// occupy a Max slot until their booked lanes clear (capacity
	// handover), and are pruned causally via the lane model.
	draining []int
	track    *inflight
	lastUp   time.Duration
	lastDwn  time.Duration
	events   []Event
	// faultsOn caches cfg.Faults.Enabled().
	faultsOn bool
	// nextCrash is the earliest crashAt among current candidates (may be
	// stale-low after removals, never stale-high): the cheap per-arrival
	// gate on the crash sweep.
	nextCrash time.Duration
	// crashedOpen lists crashed servers not yet retired from the engine:
	// while every candidate is down and replacements boot, arrivals queue
	// on the most recent of these (delivery kills them in-kernel). They
	// retire as soon as a live candidate exists again.
	crashedOpen []int
	// crashes counts unplanned retirements (Result.Faults.Crashes).
	crashes  int64
	crashCtr *obs.Counter // autoscale.crashes, nil without a registry
}

// farFuture is the nextCrash sentinel for "no candidate ever crashes".
const farFuture = time.Duration(math.MaxInt64)

// recordBlock is how many IDs one block of an exact run's record slots
// holds: the invocation count is not known up front.
var recordBlock = metrics.SlotBlockSize

// validate applies Config defaulting and sanity checks.
func (cfg *Config) validate() (up, down float64, err error) {
	if cfg.Min < 1 {
		return 0, 0, fmt.Errorf("autoscale: Min must be >= 1, got %d", cfg.Min)
	}
	if cfg.Max < cfg.Min {
		return 0, 0, fmt.Errorf("autoscale: Max %d below Min %d", cfg.Max, cfg.Min)
	}
	if cfg.SpinUp < 0 || cfg.UpCooldown < 0 || cfg.DownCooldown < 0 {
		return 0, 0, fmt.Errorf("autoscale: negative latency (spin-up %v, cooldowns %v/%v)",
			cfg.SpinUp, cfg.UpCooldown, cfg.DownCooldown)
	}
	if cfg.Faults.StragglerMTBF > 0 {
		return 0, 0, fmt.Errorf("autoscale: straggler plans are not supported (terminal crash/timeout/retry only)")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyTargetUtilization
	}
	if cfg.SpinUp == 0 {
		cfg.SpinUp = DefaultSpinUp
	}
	if cfg.UpCooldown == 0 {
		cfg.UpCooldown = DefaultUpCooldown
	}
	if cfg.DownCooldown == 0 {
		cfg.DownCooldown = DefaultDownCooldown
	}
	return cfg.Policy.thresholds(cfg.UpThreshold, cfg.DownThreshold)
}

// Run consumes src and simulates the elastic fleet, keeping exact
// records. See the package comment for the protocol; the per-arrival
// processing order is fixed: (1) servers whose spin-up completed become
// routable, (2) the arrival is routed and booked, (3) scale-up is
// evaluated, (4) scale-down is evaluated (skipped on an instant that
// launched — a launch already moved the signal).
func Run(cfg Config, src workload.Source) (*Result, error) { return run(cfg, src, nil) }

// run is Run with each server's completion sink from sink, called at
// activation in server-index order; nil keeps exact records.
func run(cfg Config, src workload.Source, sink func(server int) metrics.Sink) (*Result, error) {
	up, down, err := (&cfg).validate()
	if err != nil {
		return nil, err
	}
	// Launch indices spread round-robin over the shards; every server
	// has a sink of its own, or writes its records into their slots, so
	// the partition changes no result.
	shards := cluster.DefaultShards(cfg.Max)
	l := cluster.Layout{Shards: shards, ShardOf: func(s int) int { return s % shards }, Sink: sink, Block: recordBlock}
	// distantPast keeps the first launch/drain decision free of cooldown
	// gating without risking subtraction overflow against run timestamps.
	const distantPast = time.Duration(math.MinInt64 / 2)
	c := &controller{
		cfg:       cfg,
		up:        up,
		down:      down,
		track:     newInflight(),
		lastUp:    distantPast,
		lastDwn:   distantPast,
		faultsOn:  cfg.Faults.Enabled(),
		nextCrash: farFuture,
	}
	if c.faultsOn {
		l.Machine = c.machine
	}
	if c.d, err = cluster.NewDriver(cluster.Config{
		Dispatch: cfg.Dispatch, Seed: cfg.Seed, Kernel: cfg.Kernel, Policy: cfg.Sched, Ghost: cfg.Ghost,
		Window: cfg.Window, ColdStart: cfg.ColdStart, Obs: cfg.Obs, Faults: cfg.Faults,
	}, l); err != nil {
		return nil, err
	}
	c.model, c.pools = c.d.Model(), c.d.Router().Pools()
	if reg := cfg.Obs.Registry(); reg != nil && c.faultsOn {
		c.crashCtr = reg.Counter(obs.CScaleCrashes)
	}
	// The Min floor is provisioned before the run: launched and ready at
	// time zero, exactly the fixed fleet's starting state.
	for i := 0; i < cfg.Min; i++ {
		c.launch(0, 0)
	}
	if err := c.d.Run(src, c); err != nil {
		return nil, err
	}
	return c.finish()
}

// Before implements cluster.Controller: it activates the servers due by
// t, applies the crashes due by t, and names the candidates.
func (c *controller) Before(t time.Duration) ([]int, int, error) {
	if err := c.activate(t); err != nil {
		return nil, 0, err
	}
	if c.faultsOn {
		c.sweepCrashes(t)
		c.closeCrashed()
	}
	if c.cfg.Policy == PolicyQueueDepth {
		c.track.advance(t)
	}
	// An arrival queued on a crashed server is killed on delivery, and its
	// retry budget, futile against a terminal crash, decides its give-up.
	fallback := -1
	if n := len(c.crashedOpen); n > 0 {
		fallback = c.crashedOpen[n-1]
	}
	return c.candidates, fallback, nil
}

// After implements cluster.Controller: it books the routed arrival and
// evaluates scale-up, then scale-down.
func (c *controller) After(s int, r cluster.Routed, finish time.Duration) {
	if c.cfg.Policy == PolicyQueueDepth {
		c.track.book(s, finish)
	}
	if r.ColdStart > 0 {
		c.servers[s].ColdStarts++
	}
	t := r.Inv.Arrival
	c.evalDown(t, c.evalUp(t))
}

// machine is server s's terminal fault machine, which shares the slot's
// crash instant.
func (c *controller) machine(s int) *faults.Machine {
	return faults.NewTerminalMachine(c.cfg.Faults, s, c.servers[s].crashAt)
}

// launch registers a new server: billing starts now, routing after
// spin-up. Its machine is built at activation, so a canceled boot costs
// nothing but its billed spin-up fraction.
func (c *controller) launch(t, ready time.Duration) {
	idx := len(c.servers)
	c.model.AddServer(ready)
	if c.pools != nil {
		c.pools.AddServer() // a fresh server has no warm state
	}
	sv := &serverState{Server: Server{
		ServerResult: cluster.ServerResult{Server: idx}, LaunchAt: t, ReadyAt: ready, DrainAt: Never, RetireAt: Never,
	}, crashAt: Never}
	if c.faultsOn && c.cfg.Faults.CrashMTBF > 0 {
		// The slot's terminal crash: first scheduled crash strictly after
		// readiness (a boot cannot crash — it is not a machine yet). The
		// in-kernel machine gets the same instant at activation.
		if at, ok := faults.NewSchedule(c.cfg.Faults, idx).NextCrash(ready); ok {
			sv.crashAt = at
		}
	}
	c.servers = append(c.servers, sv)
	c.pending = append(c.pending, idx)
	c.events = append(c.events, Event{Time: t, Kind: EventLaunch, Server: idx})
}

// activate moves every server whose spin-up completed by t into the
// candidate set, in launch order, joining each to its engine shard.
func (c *controller) activate(t time.Duration) error {
	for len(c.pending) > 0 {
		idx := c.pending[0]
		sv := c.servers[idx]
		if sv.ReadyAt > t {
			break
		}
		c.pending = c.pending[1:]
		var err error
		if sv.m, err = c.d.Join(idx); err != nil {
			return err
		}
		c.candidates = append(c.candidates, idx)
		if sv.crashAt != Never && sv.crashAt < c.nextCrash {
			c.nextCrash = sv.crashAt
		}
		// Keep the model's indexed dispatch set equal to the candidate
		// slice: launches sit outside it until they activate here.
		c.model.SetEligible(idx, true, t)
		c.events = append(c.events, Event{Time: sv.ReadyAt, Kind: EventReady, Server: idx})
	}
	return nil
}

// sweepCrashes applies every candidate crash due by t: the fault plan's
// unplanned retirement. The crashed slot frees its Max share immediately
// (a dead machine hands no capacity over), so one cold replacement per
// crash launches at once, cooldown-exempt, Max permitting.
func (c *controller) sweepCrashes(t time.Duration) {
	if t < c.nextCrash {
		return
	}
	crashed := 0
	kept := c.candidates[:0]
	for _, s := range c.candidates {
		sv := c.servers[s]
		if sv.crashAt != Never && sv.crashAt <= t {
			c.crash(s, t)
			crashed++
		} else {
			kept = append(kept, s)
		}
	}
	c.candidates = kept
	c.nextCrash = farFuture
	for _, s := range c.candidates {
		if sv := c.servers[s]; sv.crashAt != Never && sv.crashAt < c.nextCrash {
			c.nextCrash = sv.crashAt
		}
	}
	for ; crashed > 0; crashed-- {
		if len(c.candidates)+len(c.pending)+c.drainingBusy(t) >= c.cfg.Max {
			break
		}
		c.launch(t, t+c.cfg.SpinUp)
	}
}

// crash retires one server off-plan: billing stops at the crash instant,
// routing eligibility ends now, the warm pool is gone. The in-kernel
// machine (which shares crashAt) kills the residents; the server stays in
// the engine until a live candidate exists, so a fully-down fleet can
// still queue work here (killed on delivery).
func (c *controller) crash(s int, t time.Duration) {
	sv := c.servers[s]
	at := sv.crashAt
	sv.DrainAt, sv.RetireAt, sv.Crashed = at, at, true
	c.model.SetEligible(s, false, t)
	c.track.drop(s)
	if c.pools != nil {
		c.pools.DropServer(s)
	}
	c.crashedOpen = append(c.crashedOpen, s)
	c.crashes++
	if c.crashCtr != nil {
		c.crashCtr.Inc()
	}
	if tr := c.cfg.Obs.Tracer(); tr != nil {
		tr.FaultEvent("crash", s, at)
	}
	c.events = append(c.events, Event{Time: at, Kind: EventDrain, Server: s})
}

// closeCrashed retires crashed servers from the engine once a live
// candidate exists again (they are no longer needed as the last-resort
// queue), letting their kernels drain.
func (c *controller) closeCrashed() {
	if len(c.crashedOpen) == 0 || len(c.candidates) == 0 {
		return
	}
	for _, s := range c.crashedOpen {
		c.d.Retire(c.servers[s].m)
	}
	c.crashedOpen = c.crashedOpen[:0]
}

// signal computes the scaling signal at t over provisioned capacity
// (candidates plus booting servers — in-flight launches suppress further
// launches).
func (c *controller) signal(t time.Duration) float64 {
	prov := len(c.candidates) + len(c.pending)
	if prov == 0 {
		return 0
	}
	lanes := float64(prov * c.cfg.Kernel.Cores)
	if c.cfg.Policy == PolicyQueueDepth {
		return float64(c.track.total) / lanes
	}
	// The eligible set is exactly c.candidates, so the load index's busy
	// aggregate replaces the per-arrival fleet scan.
	busy := c.model.EligibleBusyLanes(t)
	return float64(busy) / lanes
}

// drainingBusy counts drained servers whose booked work extends past t,
// pruning the ones that cleared. Purely causal (lane model only), so
// launch decisions stay deterministic.
func (c *controller) drainingBusy(t time.Duration) int {
	kept := c.draining[:0]
	for _, s := range c.draining {
		if c.model.Outstanding(s, t) > 0 {
			kept = append(kept, s)
		}
	}
	c.draining = kept
	return len(kept)
}

// evalUp launches one server when the signal crosses the up threshold.
func (c *controller) evalUp(t time.Duration) bool {
	if len(c.candidates)+len(c.pending)+c.drainingBusy(t) >= c.cfg.Max {
		return false
	}
	if t-c.lastUp < c.cfg.UpCooldown {
		return false
	}
	if c.signal(t) < c.up {
		return false
	}
	c.launch(t, t+c.cfg.SpinUp)
	c.lastUp = t
	return true
}

// evalDown drains one server when the signal falls below the down
// threshold: a still-booting server is canceled outright (newest first),
// otherwise the least-loaded candidate (ties to the newest) stops
// receiving arrivals and retires once its in-flight tasks finish.
func (c *controller) evalDown(t time.Duration, justLaunched bool) {
	if justLaunched {
		return
	}
	if len(c.candidates)+len(c.pending) <= c.cfg.Min {
		return
	}
	if t-c.lastDwn < c.cfg.DownCooldown {
		return
	}
	if c.signal(t) > c.down {
		return
	}
	if n := len(c.pending); n > 0 {
		idx := c.pending[n-1]
		c.pending = c.pending[:n-1]
		sv := c.servers[idx]
		sv.DrainAt, sv.RetireAt, sv.Canceled = t, t, true
		if c.pools != nil {
			c.pools.DropServer(idx) // empty by construction, but keep the invariant
		}
		c.events = append(c.events, Event{Time: t, Kind: EventDrain, Server: idx})
	} else {
		best, bestLoad := -1, time.Duration(0)
		for _, s := range c.candidates {
			if load := c.model.Outstanding(s, t); best < 0 || load <= bestLoad {
				best, bestLoad = s, load
			}
		}
		sv := c.servers[best]
		sv.DrainAt = t
		i := sort.SearchInts(c.candidates, best)
		c.candidates = append(c.candidates[:i], c.candidates[i+1:]...)
		c.model.SetEligible(best, false, t)
		c.draining = append(c.draining, best)
		c.track.drop(best)
		if c.pools != nil {
			// Retiring the server tears down its instances: nothing routes
			// here again, so dropping at drain time is observationally the
			// same as at retire time — and the warm state is gone for good.
			c.pools.DropServer(best)
		}
		c.d.Retire(sv.m)
		c.events = append(c.events, Event{Time: t, Kind: EventDrain, Server: best})
	}
	c.lastDwn = t
}

// finish assembles the Result after the engine has drained every server.
// With exact records it joins their slots into the fleet's Set.
func (c *controller) finish() (*Result, error) {
	res := &Result{
		Dispatch: c.d.Dispatch(),
		Policy:   c.cfg.Policy,
	}

	// The fleet totals first: surviving servers bill until its makespan.
	var t cluster.Totals
	for _, sv := range c.servers {
		if sv.m != nil {
			sv.ServerResult = sv.m.Result
		}
		t.Add(&sv.ServerResult)
	}
	res.Routed, res.Completed, res.Failed, res.Preemptions = t.Invocations, t.Completed, t.Failed, t.Preemptions
	res.Makespan, res.Stats, res.KernelEvents, res.Faults = t.Makespan, t.Stats, t.Events, t.Faults
	res.Faults.Crashes = c.crashes

	var err error
	if res.Set.Records, res.Assignment, err = c.d.Records(); err != nil {
		return nil, err
	}

	events := c.events
	for s, sv := range c.servers {
		switch {
		case sv.Canceled, sv.Crashed:
			// RetireAt already set: a cancel bills to the drain instant, a
			// crash to the crash instant (post-crash kernel activity is
			// kill bookkeeping on a machine no longer billed).
		case sv.DrainAt != Never:
			sv.RetireAt = max(sv.DrainAt, sv.Makespan)
		default:
			// Survivors shut down when the run ends — including one still
			// mid-boot, which (like a canceled boot) bills only the spin-up
			// fraction bought before the workload drained.
			sv.RetireAt = max(res.Makespan, sv.LaunchAt)
		}
		events = append(events, Event{Time: sv.RetireAt, Kind: EventRetire, Server: s})
		res.ColdStarts += sv.ColdStarts
		res.ServerSeconds += sv.BilledSeconds()
		res.Servers = append(res.Servers, sv.Server)
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].Server < events[j].Server
	})
	active := 0
	for i := range events {
		switch events[i].Kind {
		case EventLaunch:
			active++
		case EventRetire:
			active--
		}
		events[i].Active = active
		if active > res.PeakServers {
			res.PeakServers = active
		}
	}
	res.Events = events

	// The engine has counted the servers' kernel, enclave and fault
	// machine work; the controller adds its own.
	if reg := c.cfg.Obs.Registry(); reg != nil {
		reg.Gauge(obs.GServerSeconds).Add(res.ServerSeconds)
		kinds := [...]*obs.Counter{
			EventLaunch: reg.Counter(obs.CScaleLaunches),
			EventReady:  reg.Counter(obs.CScaleReady),
			EventDrain:  reg.Counter(obs.CScaleDrains),
			EventRetire: reg.Counter(obs.CScaleRetires),
		}
		for i := range events {
			kinds[events[i].Kind].Inc()
		}
		if c.faultsOn {
			reg.Counter(obs.CFaultCrashes).Add(res.Faults.Crashes)
		}
	}
	if tr := c.cfg.Obs.Tracer(); tr != nil {
		for i := range events {
			tr.ScaleEvent(events[i].Kind.String(), events[i].Server, events[i].Time, events[i].Active)
		}
	}
	return res, nil
}
