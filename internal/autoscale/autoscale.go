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
// Determinism. The controller's decisions — routing, launches, drains —
// depend only on the arrival stream and the dispatcher's causal lane
// model (cluster.FleetModel), never on simulated server state, so they
// are identical regardless of how the per-server goroutines interleave.
// Scale events follow a fixed per-arrival ordering (activations due, then
// routing, then scale-up, then scale-down), and every per-server
// simulation is cluster.RunStreamedServer — the same computation the
// fixed fleet runs. An autoscaler pinned to Min = Max = N therefore
// reproduces cluster.Config{Streamed: true} results bit for bit, which
// the golden digests prove. See DESIGN.md §8.
package autoscale

import (
	"fmt"
	"math"
	"sort"
	"sync"
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

// chanBuf is the per-server routing channel depth: enough to keep the
// controller from stalling on a briefly busy server, small enough that
// total buffered work stays a constant factor of the fleet size.
const chanBuf = 256

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
	// Sched returns a fresh per-server scheduling policy. Factories are
	// called sequentially from the controller, in server-index order.
	Sched func() ghost.Policy
	// Ghost configures each server's delegation enclave.
	Ghost ghost.Config
	// Window overrides the streamed look-ahead half-window (zero means
	// simrun.DefaultWindow).
	Window time.Duration
	// Sink, when non-nil, supplies each server's completion sink (called
	// once per server at activation, in server-index order). When nil,
	// every server records into an exact per-server metrics.Set, exposed
	// as Server.Set with records sorted by global invocation id.
	Sink func(server int) metrics.Sink
	// TrackAssignment records the global invocation→server assignment in
	// Result.Assignment (O(invocations) memory; leave off for long runs).
	TrackAssignment bool
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
	// Index is the launch-order fleet index (also the dispatch index).
	Index int
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
	// Routed counts invocations dispatched here; Completed/Failed count
	// retired records (their sum always equals Routed — drain-before-
	// retire never drops an admitted task).
	Routed, Completed, Failed int
	// ColdStarts counts routed invocations that paid the instance
	// spin-up penalty here (zero with the cold-start model disabled).
	ColdStarts int
	// Preemptions sums preemption counts over this server's records.
	Preemptions int
	// Makespan is this server's last completion instant (zero if it never
	// served).
	Makespan time.Duration
	// Set holds this server's records sorted by global invocation id —
	// only when the run used the default exact sinks (Config.Sink nil).
	Set *metrics.Set
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
	// equals Routed.
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
	// PoolWorkers is how many pooled worker goroutines hosted the
	// per-server runs — bounded by the peak live fleet, not by total
	// launches (retired servers' workers are reused). This is a host
	// execution observable and may vary between identical runs; the
	// simulated outcome never depends on it.
	PoolWorkers int
	// Assignment maps each invocation index to its server, when
	// Config.TrackAssignment was set.
	Assignment []int
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

// workerPool reuses goroutines across server lifetimes. A long elastic
// replay launches far more servers than are ever live at once; spawning
// a raw goroutine per launch therefore scales the host cost with churn,
// not with the fleet. submit runs fn on an idle pooled worker when one
// exists and spawns a new one otherwise, so the goroutine count is
// bounded by the peak number of concurrently live servers (every live
// server must keep a dedicated worker — its channel-fed run blocks — so
// no smaller bound is deadlock-free). Simulation results are unaffected:
// which worker hosts a server cannot be observed by the run.
type workerPool struct {
	mu      sync.Mutex
	idle    []chan func()
	all     []chan func()
	spawned int
}

// submit schedules fn on a pooled worker, preferring an idle one.
func (p *workerPool) submit(fn func()) {
	p.mu.Lock()
	var w chan func()
	if n := len(p.idle); n > 0 {
		w = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
	} else {
		w = make(chan func())
		p.all = append(p.all, w)
		p.spawned++
		p.mu.Unlock()
		go p.worker(w)
	}
	w <- fn
}

func (p *workerPool) worker(w chan func()) {
	for fn := range w {
		fn()
		p.mu.Lock()
		p.idle = append(p.idle, w)
		p.mu.Unlock()
	}
}

// close releases every pooled worker. Callers must not submit afterwards
// and must have waited for all submitted work to finish.
func (p *workerPool) close() {
	p.mu.Lock()
	for _, w := range p.all {
		close(w)
	}
	p.mu.Unlock()
}

// countingSink wraps a server's completion sink with the bookkeeping the
// controller needs regardless of what the caller collects.
type countingSink struct {
	inner                       metrics.Sink
	completed, failed, preempts int
}

// Push implements metrics.Sink.
func (c *countingSink) Push(r metrics.Record) {
	if r.Failed {
		c.failed++
	} else {
		c.completed++
	}
	c.preempts += r.Preemptions
	if c.inner != nil {
		c.inner.Push(r)
	}
}

// serverState is a Server plus the controller's runtime handles.
type serverState struct {
	Server
	ch        chan cluster.Routed
	done      chan struct{}
	started   bool
	closed    bool
	count     countingSink
	err       error
	simSpan   time.Duration // kernel makespan, read after done
	tickStats ghost.Stats   // enclave delegation counters, read after done
	events    uint64        // scheduled kernel events, read after done
	// crashAt is the slot's terminal crash instant from the fault plan
	// (first scheduled crash strictly after ReadyAt), or Never. Fixed at
	// launch; the controller and the in-kernel machine share it.
	crashAt time.Duration
	// fm is the per-server fault machine (terminal mode), built at
	// activation and read (Stats) only after done. Nil without a plan.
	fm *faults.Machine
}

// run is the per-server goroutine: the shared streamed runner pulling
// from the routing channel. On error it keeps draining the channel so the
// controller can never block on a dead server.
func (sv *serverState) run(cfg Config, policy ghost.Policy) {
	defer close(sv.done)
	next := func() (cluster.Routed, bool) {
		r, ok := <-sv.ch
		return r, ok
	}
	kcfg, gcfg := cfg.Kernel, cfg.Ghost
	if tr := cfg.Obs.Tracer(); tr != nil {
		kcfg.Probe = tr.KernelProbe(sv.Index)
		gcfg.Probe = tr.GhostProbe(sv.Index)
	}
	k, err := cluster.RunStreamedServer(kcfg, policy, gcfg, cfg.Window, sv.fm, next, &sv.count, &sv.tickStats)
	if err != nil {
		sv.err = err
		for range sv.ch {
		}
		return
	}
	sv.simSpan = k.Makespan()
	sv.events = k.EventSeq()
}

// controller is the streaming dispatcher's state, touched only from the
// caller's goroutine.
type controller struct {
	cfg      Config
	up, down float64
	model    *cluster.FleetModel
	pools    *cluster.WarmPools // nil unless cfg.ColdStart.Enabled()
	disp     cluster.Dispatcher
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
	assign   []int
	// pool hosts the per-server runs: launched servers go onto reusable
	// pooled workers, not raw goroutines, so host goroutine count tracks
	// peak live fleet size rather than total launches.
	pool workerPool
	// warmHits/coldMisses tally the warm-pool outcome per routed
	// invocation; nil unless both counting and the cold-start model are
	// enabled (DESIGN.md §13).
	warmHits, coldMisses *obs.Counter
	pg                   *obs.Progress
	// faultsOn caches cfg.Faults.Enabled().
	faultsOn bool
	// nextCrash is the earliest crashAt among current candidates (may be
	// stale-low after removals, never stale-high): the cheap per-arrival
	// gate on the crash sweep.
	nextCrash time.Duration
	// crashedOpen lists crashed servers whose routing channels are still
	// open: while every candidate is down and replacements boot, arrivals
	// queue on the most recent of these (delivery kills them in-kernel).
	// Channels close as soon as a live candidate exists again.
	crashedOpen []int
	// crashes counts unplanned retirements (Result.Faults.Crashes).
	crashes  int64
	crashCtr *obs.Counter // autoscale.crashes, nil without a registry
}

// farFuture is the nextCrash sentinel for "no candidate ever crashes".
const farFuture = time.Duration(math.MaxInt64)

// validate applies Config defaulting and sanity checks.
func (cfg *Config) validate() (up, down float64, err error) {
	if cfg.Min < 1 {
		return 0, 0, fmt.Errorf("autoscale: Min must be >= 1, got %d", cfg.Min)
	}
	if cfg.Max < cfg.Min {
		return 0, 0, fmt.Errorf("autoscale: Max %d below Min %d", cfg.Max, cfg.Min)
	}
	if cfg.Kernel.Cores < 1 {
		return 0, 0, fmt.Errorf("autoscale: Kernel.Cores must be >= 1, got %d", cfg.Kernel.Cores)
	}
	if cfg.Sched == nil {
		return 0, 0, fmt.Errorf("autoscale: nil Sched factory")
	}
	if cfg.SpinUp < 0 || cfg.UpCooldown < 0 || cfg.DownCooldown < 0 {
		return 0, 0, fmt.Errorf("autoscale: negative latency (spin-up %v, cooldowns %v/%v)",
			cfg.SpinUp, cfg.UpCooldown, cfg.DownCooldown)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return 0, 0, err
	}
	if cfg.Faults.StragglerMTBF > 0 {
		return 0, 0, fmt.Errorf("autoscale: straggler plans are not supported (terminal crash/timeout/retry only)")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyTargetUtilization
	}
	if cfg.Dispatch == "" {
		cfg.Dispatch = cluster.DispatchLeastLoaded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
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

// Run consumes src and simulates the elastic fleet. See the package
// comment for the protocol; the per-arrival processing order is fixed:
// (1) servers whose spin-up completed become routable, (2) the arrival is
// routed and booked, (3) scale-up is evaluated, (4) scale-down is
// evaluated (skipped on an instant that launched — a launch already moved
// the signal).
func Run(cfg Config, src workload.Source) (*Result, error) {
	up, down, err := (&cfg).validate()
	if err != nil {
		return nil, err
	}
	// distantPast keeps the first launch/drain decision free of cooldown
	// gating without risking subtraction overflow against run timestamps.
	const distantPast = time.Duration(math.MinInt64 / 2)
	c := &controller{
		cfg:       cfg,
		up:        up,
		down:      down,
		model:     cluster.NewFleetModel(0, cfg.Kernel.Cores),
		track:     newInflight(),
		lastUp:    distantPast,
		lastDwn:   distantPast,
		faultsOn:  cfg.Faults.Enabled(),
		nextCrash: farFuture,
	}
	if c.disp, err = cluster.NewDispatcher(cfg.Dispatch, cfg.Seed, c.model); err != nil {
		return nil, err
	}
	if cfg.ColdStart.Enabled() {
		c.pools = cluster.NewWarmPools(cfg.ColdStart, 0)
		if cfg.ColdStart.WarmFirst {
			c.disp = cluster.WarmFirstDispatcher(c.disp, c.pools, c.model)
		}
	}
	c.pg = cfg.Obs.Progress()
	if reg := cfg.Obs.Registry(); reg != nil {
		if c.pools != nil {
			c.warmHits = reg.Counter(obs.CColdWarmHits)
			c.coldMisses = reg.Counter(obs.CColdMisses)
		}
		if c.faultsOn {
			c.crashCtr = reg.Counter(obs.CScaleCrashes)
		}
	}
	// The Min floor is provisioned before the run: launched and ready at
	// time zero, exactly the fixed fleet's starting state.
	for i := 0; i < cfg.Min; i++ {
		c.launch(0, 0)
	}

	idx := 0
	lastArr := time.Duration(0)
	var runErr error
	src(func(inv workload.Invocation) bool {
		if inv.Arrival < lastArr {
			runErr = fmt.Errorf("autoscale: source out of order at invocation %d: %v after %v",
				idx, inv.Arrival, lastArr)
			return false
		}
		lastArr = inv.Arrival
		if runErr = c.processArrival(inv, idx); runErr != nil {
			return false
		}
		idx++
		return true
	})
	if runErr == nil && idx == 0 {
		runErr = fmt.Errorf("autoscale: empty workload")
	}

	// Drain-before-retire, fleet-wide: stop routing (close every channel)
	// and let every server finish its in-flight share.
	for _, sv := range c.servers {
		if sv.started && !sv.closed {
			close(sv.ch)
			sv.closed = true
		}
	}
	for _, sv := range c.servers {
		if sv.started {
			<-sv.done
		}
	}
	c.pool.close()
	for _, sv := range c.servers {
		if runErr == nil && sv.err != nil {
			runErr = fmt.Errorf("autoscale: server %d: %w", sv.Index, sv.err)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return c.finish(idx)
}

// processArrival applies the fixed per-arrival scale-event ordering.
func (c *controller) processArrival(inv workload.Invocation, idx int) error {
	t := inv.Arrival
	if err := c.activate(t); err != nil {
		return err
	}
	if c.faultsOn {
		c.sweepCrashes(t)
		c.closeCrashed()
	}
	if c.cfg.Policy == PolicyQueueDepth {
		c.track.advance(t)
	}
	if err := c.route(inv, idx); err != nil {
		return err
	}
	launched := c.evalUp(t)
	c.evalDown(t, launched)
	return nil
}

// launch registers a new server: billing starts now, routing after
// spin-up. The goroutine starts at activation, so a canceled boot costs
// nothing but its billed spin-up fraction.
func (c *controller) launch(t, ready time.Duration) {
	idx := len(c.servers)
	c.model.AddServer(ready)
	if c.pools != nil {
		c.pools.AddServer() // a fresh server has no warm state
	}
	sv := &serverState{Server: Server{
		Index: idx, LaunchAt: t, ReadyAt: ready, DrainAt: Never, RetireAt: Never,
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
// candidate set, in launch order.
func (c *controller) activate(t time.Duration) error {
	for len(c.pending) > 0 {
		idx := c.pending[0]
		sv := c.servers[idx]
		if sv.ReadyAt > t {
			break
		}
		c.pending = c.pending[1:]
		policy := c.cfg.Sched()
		if policy == nil {
			return fmt.Errorf("autoscale: Sched factory returned nil for server %d", idx)
		}
		if c.cfg.Sink != nil {
			sv.count.inner = c.cfg.Sink(idx)
		} else {
			sv.Set = &metrics.Set{}
			sv.count.inner = sv.Set
		}
		sv.count.inner = c.cfg.Obs.WrapSink(idx, sv.count.inner)
		if c.faultsOn {
			sv.fm = faults.NewTerminalMachine(c.cfg.Faults, idx, sv.crashAt)
		}
		sv.ch = make(chan cluster.Routed, chanBuf)
		sv.done = make(chan struct{})
		sv.started = true
		c.pool.submit(func() { sv.run(c.cfg, policy) })
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
			c.crash(sv, t)
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
// machine (which shares crashAt) kills the residents; the routing channel
// stays open until a live candidate exists, so a fully-down fleet can
// still queue work here (killed on delivery).
func (c *controller) crash(sv *serverState, t time.Duration) {
	at := sv.crashAt
	sv.DrainAt, sv.RetireAt, sv.Crashed = at, at, true
	c.model.SetEligible(sv.Index, false, t)
	c.track.drop(sv.Index)
	if c.pools != nil {
		c.pools.DropServer(sv.Index)
	}
	c.crashedOpen = append(c.crashedOpen, sv.Index)
	c.crashes++
	if c.crashCtr != nil {
		c.crashCtr.Inc()
	}
	if tr := c.cfg.Obs.Tracer(); tr != nil {
		tr.FaultEvent("crash", sv.Index, at)
	}
	c.events = append(c.events, Event{Time: at, Kind: EventDrain, Server: sv.Index})
}

// closeCrashed closes crashed servers' routing channels once a live
// candidate exists again (they are no longer needed as the last-resort
// queue), letting their kernels drain and retire.
func (c *controller) closeCrashed() {
	if len(c.crashedOpen) == 0 || len(c.candidates) == 0 {
		return
	}
	for _, s := range c.crashedOpen {
		sv := c.servers[s]
		close(sv.ch)
		sv.closed = true
	}
	c.crashedOpen = c.crashedOpen[:0]
}

// route dispatches one invocation among the candidates and books it into
// the causal model.
func (c *controller) route(inv workload.Invocation, idx int) error {
	var s int
	if len(c.candidates) == 0 && c.faultsOn {
		// Every candidate crashed and the replacements are still booting:
		// queue on the most recently crashed server. Delivery kills the
		// task in-kernel (fail-fast) and the retry budget — futile against
		// a terminal crash — decides its give-up record, so the arrival is
		// still accounted for.
		n := len(c.crashedOpen)
		if n == 0 {
			return fmt.Errorf("autoscale: no routable server at %v", inv.Arrival)
		}
		s = c.crashedOpen[n-1]
	} else {
		s = c.disp.Pick(inv, c.candidates)
		i := sort.SearchInts(c.candidates, s)
		if i >= len(c.candidates) || c.candidates[i] != s {
			return fmt.Errorf("autoscale: dispatch %q picked non-candidate server %d", c.cfg.Dispatch, s)
		}
	}
	var cold, finish time.Duration
	if c.pools == nil {
		finish = c.model.Assign(s, inv)
	} else {
		if c.pools.IsCold(s, inv, inv.Arrival) {
			cold = c.cfg.ColdStart.Latency
		}
		finish = c.model.AssignDemand(s, inv.Arrival, inv.Duration+cold)
		c.pools.Book(s, inv, inv.Arrival, finish, cold > 0)
		if cold > 0 {
			if c.coldMisses != nil {
				c.coldMisses.Inc()
			}
		} else if c.warmHits != nil {
			c.warmHits.Inc()
		}
	}
	if c.cfg.Policy == PolicyQueueDepth {
		c.track.book(s, finish)
	}
	sv := c.servers[s]
	sv.Routed++
	if cold > 0 {
		sv.ColdStarts++
	}
	if c.cfg.TrackAssignment {
		c.assign = append(c.assign, s)
	}
	sv.ch <- cluster.Routed{Inv: inv, Idx: idx, ColdStart: cold}
	if c.pg != nil {
		c.pg.Routed.Add(1)
		c.pg.Watermark.Store(int64(inv.Arrival))
	}
	return nil
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
		close(sv.ch)
		sv.closed = true
		c.events = append(c.events, Event{Time: t, Kind: EventDrain, Server: best})
	}
	c.lastDwn = t
}

// finish assembles the Result after every server goroutine has drained.
func (c *controller) finish(routed int) (*Result, error) {
	res := &Result{
		Dispatch:    c.cfg.Dispatch,
		Policy:      c.cfg.Policy,
		Routed:      routed,
		Assignment:  c.assign,
		PoolWorkers: c.pool.spawned,
	}

	// Fleet makespan first: surviving servers bill until it.
	for _, sv := range c.servers {
		sv.Makespan = sv.simSpan
		if sv.Makespan > res.Makespan {
			res.Makespan = sv.Makespan
		}
	}

	events := c.events
	for _, sv := range c.servers {
		sv.Completed = sv.count.completed
		sv.Failed = sv.count.failed
		sv.Preemptions = sv.count.preempts
		if sv.Completed+sv.Failed != sv.Routed {
			return nil, fmt.Errorf("autoscale: server %d retired %d of %d routed invocations",
				sv.Index, sv.Completed+sv.Failed, sv.Routed)
		}
		if sv.Set != nil {
			recs := sv.Set.Records
			sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
		}
		switch {
		case sv.Canceled, sv.Crashed:
			// RetireAt already set: a cancel bills to the drain instant, a
			// crash to the crash instant (post-crash kernel activity is
			// kill bookkeeping on a machine no longer billed).
		case sv.DrainAt != Never:
			sv.RetireAt = sv.DrainAt
			if sv.Makespan > sv.RetireAt {
				sv.RetireAt = sv.Makespan
			}
		default:
			// Survivors shut down when the run ends — including one still
			// mid-boot, which (like a canceled boot) bills only the spin-up
			// fraction bought before the workload drained.
			sv.RetireAt = res.Makespan
			if sv.RetireAt < sv.LaunchAt {
				sv.RetireAt = sv.LaunchAt
			}
		}
		events = append(events, Event{Time: sv.RetireAt, Kind: EventRetire, Server: sv.Index})

		res.Completed += sv.Completed
		res.Failed += sv.Failed
		res.Preemptions += sv.Preemptions
		res.ColdStarts += sv.ColdStarts
		res.ServerSeconds += sv.BilledSeconds()
		res.Stats.Accumulate(sv.tickStats)
		res.KernelEvents += sv.events
		if sv.fm != nil {
			res.Faults.Accumulate(sv.fm.Stats())
		}
		res.Servers = append(res.Servers, sv.Server)
	}
	res.Faults.Crashes = c.crashes

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

	if reg := c.cfg.Obs.Registry(); reg != nil {
		reg.AddGhostStats(res.Stats)
		reg.Counter(obs.CKernEvents).Add(int64(res.KernelEvents))
		reg.Counter(obs.CInvocations).Add(int64(routed))
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
			reg.Counter(obs.CFaultKills).Add(res.Faults.Kills)
			reg.Counter(obs.CFaultRetries).Add(res.Faults.Retries)
			reg.Counter(obs.CFaultGiveUps).Add(res.Faults.GiveUps)
		}
	}
	if tr := c.cfg.Obs.Tracer(); tr != nil {
		for i := range events {
			tr.ScaleEvent(events[i].Kind.String(), events[i].Server, events[i].Time, events[i].Active)
		}
	}
	return res, nil
}
