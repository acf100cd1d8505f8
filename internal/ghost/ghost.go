// Package ghost models the user-space scheduling delegation system the
// paper builds on (Google ghOSt, SOSP '21): the kernel exposes task state
// changes as *messages* consumed by user-space *agents* grouped into an
// *enclave*, and agents commit placement decisions back through
// *transactions* that can fail if the world moved underneath them.
//
// The enclave here wraps internal/simkern. Scheduling policies implement
// the Policy interface and receive MsgTaskNew/MsgTaskDead messages after a
// configurable delegation latency, mirroring ghOSt's kernel→user message
// queues. Placement happens through Env.CommitRun / Env.CommitPreempt,
// which return errors equivalent to ghOSt's failed transaction commits.
package ghost

import (
	"errors"
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/simkern"
)

// MsgType enumerates delegation messages, following ghOSt's TASK_* naming.
type MsgType int

// Message types delivered to policies.
const (
	MsgTaskNew  MsgType = iota + 1 // a task became runnable
	MsgTaskDead                    // a task completed
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case MsgTaskNew:
		return "TASK_NEW"
	case MsgTaskDead:
		return "TASK_DEAD"
	default:
		return fmt.Sprintf("MsgType(%d)", int(m))
	}
}

// Message is one kernel→agent notification.
type Message struct {
	Type MsgType
	Task *simkern.Task
	// Core is the core a dead task ran on; NoCore for MsgTaskNew.
	Core simkern.CoreID
	// Sent is when the kernel emitted the message; delivery happens
	// MsgLatency later.
	Sent time.Duration
}

// Policy is a user-space scheduling policy attached to an enclave.
//
// Attach is called exactly once before any message. OnMessage receives
// every delegation message in deterministic order. Policies that also
// implement Ticker, or wrap one (Wrapper), get periodic OnTick callbacks
// managed by the enclave.
type Policy interface {
	Name() string
	Attach(env *Env)
	OnMessage(msg Message)
}

// Ticker is implemented by policies needing a periodic agent tick (e.g.
// CFS's time-slice check, the hybrid scheduler's time-limit scan). The
// enclave schedules ticks only while the machine has outstanding work, so
// simulations terminate.
type Ticker interface {
	TickEvery() time.Duration
	OnTick()
}

// HorizonTicker is the tick-elision extension of Ticker (DESIGN.md §9):
// the policy can compute, from its own state, the earliest future instant
// at which OnTick could change scheduling state — CFS's next slice expiry,
// the hybrid's next FIFO time-limit crossing, or "right now" when a core
// sits idle next to queued work. The enclave then arms exactly one tick at
// the first tick-grid boundary not before that horizon instead of waking
// the policy at every boundary, and re-evaluates the horizon after every
// message delivery (and on Env.InvalidateHorizon for policy-timer-driven
// state changes). Every tick still fires on the identical phase grid the
// naive pump would use, so elision is observationally invisible.
//
// NextDecision may be conservative (early) — an early tick is a no-op that
// recomputes — but must never be late: any instant at which OnTick would
// act must be covered. A layer that retires work through Env.AbortTask
// (no TASK_DEAD fires) must either hide its inner policy's horizon — the
// Firecracker fleet wrapper implements only Ticker itself, forwarding the
// ticks, and no Unwrap — or call Env.InvalidateHorizon after every abort
// so the pump re-evaluates, which the fault-injection wrapper does.
type HorizonTicker interface {
	Ticker
	// NextDecision returns the earliest instant >= now at which OnTick
	// could act given current state, or ok=false when no tick is needed
	// until further notice.
	NextDecision(now time.Duration) (deadline time.Duration, ok bool)
}

// Wrapper is implemented by a message-path layer around an inner policy
// (the fleet's record retirer, the fault machine) that keeps its inner
// policy's ticks: a wrapper that is no Ticker itself is ticked through
// Unwrap. NewEnclave follows the Unwrap chain to the first policy that
// implements Ticker, and pumps that policy's ticks (and its horizon, when
// it is a HorizonTicker) directly.
type Wrapper interface {
	Unwrap() Policy
}

// tickerOf returns the policy whose ticks an enclave pumps: p when it is a
// Ticker, else the first Ticker along its Unwrap chain, else nil.
func tickerOf(p Policy) Ticker {
	for {
		if tk, ok := p.(Ticker); ok {
			return tk
		}
		w, ok := p.(Wrapper)
		if !ok {
			return nil
		}
		p = w.Unwrap()
	}
}

// TaskEvictor is an optional Policy capability: remove a specific task
// from the policy's own bookkeeping — dequeue it if queued, preempt it
// (via Env.CommitPreempt) if running — and report whether the policy
// owned it. After a true return the task is Runnable and unreferenced by
// the policy, so the caller may legally Env.AbortTask it. A false return
// means the task was not found (typically its completion message is in
// flight) and the caller must leave it alone. The fault-injection layer
// requires this capability from any scheduler it kills tasks under.
type TaskEvictor interface {
	EvictTask(t *simkern.Task) bool
}

// Stats counts delegation activity, mirroring the bookkeeping the paper's
// agents expose.
type Stats struct {
	Delivered   int64 // messages delivered to the policy
	Commits     int64 // successful transactions (run or preempt)
	Failed      int64 // failed transactions
	Ticks       int64 // agent ticks fired
	TicksElided int64 // tick boundaries skipped as provably no-op (horizon pump)
	Migrations  int64 // policy-reported core migrations (hybrid rightsizer)
}

// Accumulate folds o's counters into s; the fleet layers use it to
// aggregate per-server enclave stats.
func (s *Stats) Accumulate(o Stats) {
	s.Delivered += o.Delivered
	s.Commits += o.Commits
	s.Failed += o.Failed
	s.Ticks += o.Ticks
	s.TicksElided += o.TicksElided
	s.Migrations += o.Migrations
}

// Config configures an enclave.
type Config struct {
	// MsgLatency is the kernel→agent delegation delay applied to every
	// message. ghOSt reports µs-scale delivery; default when zero is 2µs.
	// Use NoLatency for synchronous delivery.
	MsgLatency time.Duration
	// NoLatency forces synchronous (zero-delay) message delivery.
	NoLatency bool
	// ForceTickPump disables tick elision: a HorizonTicker policy is
	// driven through the naive every-boundary pump instead. Escape hatch
	// for the equivalence oracle (TestTickElisionOracle) and for
	// debugging suspected horizon bugs.
	ForceTickPump bool
	// Probe observes agent-tick firings for trace export. Nil (the
	// default) disables observation at the cost of one nil check per
	// tick. Probes must not call back into the enclave.
	Probe Probe
}

// Probe receives tick notifications when configured; the observability
// layer implements it.
type Probe interface {
	// TickFired fires after each agent tick; elided is how many grid
	// boundaries the horizon pump proved no-op since the previous fired
	// tick (always zero under the naive pump).
	TickFired(now time.Duration, elided int64)
}

// DefaultMsgLatency is applied when Config.MsgLatency is zero and
// NoLatency is false.
const DefaultMsgLatency = 2 * time.Microsecond

// Enclave owns a set of cores (in this simulator: all kernel cores) and
// delegates their scheduling to a Policy.
//
// Message delivery is batched: instead of one kernel timer (and one
// closure) per message, consecutive messages that fall due at the same
// instant share a single flush timer. A batch may only absorb a message
// when no other event was scheduled since the batch was armed — checked
// against Kernel.EventSeq — which makes batching provably equivalent to
// the per-message scheme: the absorbed message's delivery would have held
// the very next sequence number anyway, so nothing can fire between it
// and its batch.
//
// Agent ticks run one of two pumps. Plain Ticker policies get the naive
// pump: one tick per period while work is outstanding. HorizonTicker
// policies get the tick-elision pump (DESIGN.md §9): the policy's
// analytic next-decision horizon picks the single boundary worth waking
// for, every other boundary is skipped, and Stats.TicksElided counts the
// skips. Both pumps fire on the same phase grid, so the choice is
// observationally invisible — TestGoldenDigests and the equivalence
// oracle pin this.
type Enclave struct {
	kernel  *simkern.Kernel
	policy  Policy
	latency time.Duration
	stats   Stats
	probe   Probe // optional tick observer (Config.Probe)

	ticker      Ticker // policy's Ticker (tickerOf), naive pump only
	tickFn      func() // persistent tick callback (no per-tick closure)
	tickPending bool
	env         Env // the policy's handle, embedded: no allocation of its own

	// Horizon pump state (hticker non-nil selects it over the naive pump
	// above; see ensureTick vs hRearm). The grid anchor reproduces the
	// naive pump's phase exactly: it is set at the dispatch that would
	// have armed the naive pump's first tick, survives idle gaps for as
	// long as the naive pump would keep re-arming (outstanding work at
	// every boundary), and dies at the same boundary the naive pump's
	// ensureTick would decline to re-arm.
	hticker   HorizonTicker
	htickFn   func() // persistent horizon-tick callback
	pumpAlive bool
	anchor    time.Duration // grid origin; boundaries are anchor + k·period
	armed     bool
	nextArmed time.Duration // earliest pending armed boundary (valid when armed)
	lastGrid  time.Duration // last fired boundary (or anchor), for elision stats

	// Pending delivery queue: msgs[msgHead:] not yet dispatched, grouped
	// into len(batches)-batchHead armed flush timers of the given sizes,
	// in FIFO order. flushFn is the one shared timer callback.
	flushFn   func()
	msgs      []Message
	msgHead   int
	batches   []int
	batchHead int
	lastDue   time.Duration // due time of the most recently armed batch
	lastSeq   uint64        // kernel event seq right after arming it
}

// NewEnclave wires policy into kernel and registers the delegation
// handler. The kernel must not have another handler.
func NewEnclave(kernel *simkern.Kernel, policy Policy, cfg Config) (*Enclave, error) {
	if kernel == nil {
		return nil, errors.New("ghost: nil kernel")
	}
	if policy == nil {
		return nil, errors.New("ghost: nil policy")
	}
	if cfg.MsgLatency < 0 {
		return nil, fmt.Errorf("ghost: negative message latency %v", cfg.MsgLatency)
	}
	latency := cfg.MsgLatency
	if latency == 0 && !cfg.NoLatency {
		latency = DefaultMsgLatency
	}
	e := &Enclave{kernel: kernel, policy: policy, latency: latency, probe: cfg.Probe}
	e.env.enclave = e
	e.flushFn = e.flush
	tk := tickerOf(policy)
	if ht, ok := tk.(HorizonTicker); ok && !cfg.ForceTickPump {
		e.hticker = ht
		e.htickFn = e.horizonTick
	} else if tk != nil {
		e.ticker = tk
		e.tickFn = func() {
			e.tickPending = false
			e.stats.Ticks++
			if e.probe != nil {
				e.probe.TickFired(e.kernel.Now(), 0)
			}
			e.ticker.OnTick()
			e.ensureTick()
		}
	}
	kernel.SetHandler(e)
	policy.Attach(&e.env)
	return e, nil
}

// Stats returns a snapshot of delegation counters.
func (e *Enclave) Stats() Stats { return e.stats }

// Policy returns the attached policy.
func (e *Enclave) Policy() Policy { return e.policy }

// OnTaskArrived implements simkern.Handler: emit MsgTaskNew.
func (e *Enclave) OnTaskArrived(t *simkern.Task) {
	e.deliver(Message{Type: MsgTaskNew, Task: t, Core: simkern.NoCore, Sent: e.kernel.Now()})
}

// OnTaskFinished implements simkern.Handler: emit MsgTaskDead.
func (e *Enclave) OnTaskFinished(t *simkern.Task, c simkern.CoreID) {
	if e.hticker != nil && e.latency > 0 {
		// A completion frees its kernel core (and may drain the machine)
		// at the emission instant, MsgLatency before the policy hears of
		// it — and a naive tick in that window would already act on the
		// freed core (the hybrid's FIFO Dispatch reads kernel state). The
		// horizon must therefore be re-evaluated now, and before the flush
		// timer below is armed, so a tick landing on the same boundary as
		// the delivery keeps the naive pump's tick-before-flush order.
		e.hRearm()
	}
	e.deliver(Message{Type: MsgTaskDead, Task: t, Core: c, Sent: e.kernel.Now()})
}

// OnKernelDrained implements simkern.DrainHandler: an agent-initiated
// abort just retired the last outstanding task without a TASK_DEAD. The
// horizon pump's grid must get the chance to die at the same boundary the
// naive pump's already-armed tick would find the machine empty.
func (e *Enclave) OnKernelDrained() {
	if e.hticker != nil {
		e.hRearm()
	}
}

func (e *Enclave) deliver(msg Message) {
	if e.latency == 0 {
		e.dispatch(msg)
		return
	}
	due := e.kernel.Now() + e.latency
	e.msgs = append(e.msgs, msg)
	if e.batchHead < len(e.batches) && due == e.lastDue && e.kernel.EventSeq() == e.lastSeq {
		// Nothing was scheduled since the newest batch was armed, so this
		// message rides along without changing the firing order.
		e.batches[len(e.batches)-1]++
		return
	}
	e.batches = append(e.batches, 1)
	e.kernel.ScheduleFn(due, e.flushFn)
	e.lastDue = due
	e.lastSeq = e.kernel.EventSeq()
}

// flush dispatches the oldest armed batch. Batches fire strictly in
// arming order (their due times and sequence numbers both increase).
func (e *Enclave) flush() {
	if e.hticker != nil && e.armed && e.nextArmed == e.kernel.Now() {
		// A boundary tick due at this exact instant fires before the
		// flush, whatever order the two events were armed in: the naive
		// pump arms boundary b's tick at b-period (or at the pump-start
		// dispatch), always earlier — hence with a smaller sequence
		// number — than a flush armed at b-MsgLatency, so at equal
		// instants the naive order is unconditionally tick-then-delivery.
		// Horizon re-arms can land inside that MsgLatency window and
		// would otherwise invert the tie.
		e.horizonTick()
	}
	n := e.batches[e.batchHead]
	e.batchHead++
	for i := 0; i < n; i++ {
		msg := e.msgs[e.msgHead]
		e.msgs[e.msgHead] = Message{}
		e.msgHead++
		e.dispatch(msg)
	}
	// Recycle the queue storage once fully drained.
	if e.msgHead == len(e.msgs) {
		e.msgs = e.msgs[:0]
		e.msgHead = 0
	}
	if e.batchHead == len(e.batches) {
		e.batches = e.batches[:0]
		e.batchHead = 0
	}
}

func (e *Enclave) dispatch(msg Message) {
	e.stats.Delivered++
	e.policy.OnMessage(msg)
	if e.hticker != nil {
		e.hDispatch()
	} else {
		e.ensureTick()
	}
}

// ensureTick keeps the policy's periodic tick alive while work remains.
// Policies may return a non-positive TickEvery to opt out dynamically
// (e.g. pure FIFO needs no agent tick).
func (e *Enclave) ensureTick() {
	if e.ticker == nil || e.tickPending {
		return
	}
	if e.ticker.TickEvery() <= 0 {
		return
	}
	if e.kernel.Outstanding() == 0 {
		return
	}
	e.tickPending = true
	e.kernel.ScheduleFn(e.kernel.Now()+e.ticker.TickEvery(), e.tickFn)
}

// hDispatch is the horizon pump's post-message step: (re)start the pump
// exactly where the naive pump would arm its first tick — a message
// dispatch with outstanding work and no pump alive — then re-evaluate the
// horizon. The anchor instant fixes the tick phase grid until the pump
// dies, just as the naive pump's first ScheduleFn does.
func (e *Enclave) hDispatch() {
	if !e.pumpAlive {
		if e.kernel.Outstanding() == 0 || e.hticker.TickEvery() <= 0 {
			return
		}
		now := e.kernel.Now()
		e.pumpAlive = true
		e.anchor = now
		e.lastGrid = now
	}
	e.hRearm()
}

// hRearm re-evaluates the decision horizon and arms (at most) one tick at
// the first grid boundary covering it. With the machine drained it arms
// the very next boundary instead: that is where the naive pump's
// already-pending tick would fire, find nothing outstanding, and stop —
// the grid must die (or survive, if work arrives first) at that exact
// boundary or a later restart would re-phase differently.
func (e *Enclave) hRearm() {
	if !e.pumpAlive {
		return
	}
	per := e.hticker.TickEvery()
	if per <= 0 {
		return
	}
	now := e.kernel.Now()
	if e.kernel.Outstanding() == 0 {
		e.armAt(e.boundaryFor(now, now, per))
		return
	}
	if h, ok := e.hticker.NextDecision(now); ok {
		if h < now {
			h = now
		}
		e.armAt(e.boundaryFor(h, now, per))
	}
}

// boundaryFor returns the first grid boundary (anchor + k·per, k >= 1)
// that is >= h and strictly after now.
func (e *Enclave) boundaryFor(h, now, per time.Duration) time.Duration {
	k := time.Duration(1)
	if h > e.anchor {
		k = (h - e.anchor + per - 1) / per
	}
	t := e.anchor + k*per
	for t <= now {
		t += per
	}
	return t
}

// armAt schedules the horizon tick at boundary t unless an earlier (or
// equal) armed tick already covers it. Ticks ride the uncancellable
// ScheduleFn fast path, so superseded armings are not removed — the
// firing-time guard in horizonTick discards them instead.
func (e *Enclave) armAt(t time.Duration) {
	if e.armed && e.nextArmed <= t {
		return
	}
	e.armed = true
	e.nextArmed = t
	e.kernel.ScheduleFn(t, e.htickFn)
}

// horizonTick fires one elision-pump tick: skip superseded armings, run
// OnTick at the boundary, account the boundaries elided since the last
// fired tick, and either let the grid die (machine drained — mirroring
// the naive pump's stop) or re-arm at the next horizon.
func (e *Enclave) horizonTick() {
	now := e.kernel.Now()
	if !e.armed || now != e.nextArmed {
		return // superseded by an earlier re-arm, or already fired
	}
	e.armed = false
	var elided int64
	if per := e.hticker.TickEvery(); per > 0 && now > e.lastGrid {
		elided = int64((now-e.lastGrid)/per) - 1
		e.stats.TicksElided += elided
	}
	e.lastGrid = now
	e.stats.Ticks++
	if e.probe != nil {
		e.probe.TickFired(now, elided)
	}
	e.hticker.OnTick()
	if e.kernel.Outstanding() == 0 {
		e.pumpAlive = false
		return
	}
	e.hRearm()
}

// Env is the operations handle a policy uses to inspect and control its
// enclave. It wraps kernel mechanisms with transaction-style semantics.
type Env struct {
	enclave *Enclave
}

// Now returns the current simulation time.
func (v *Env) Now() time.Duration { return v.enclave.kernel.Now() }

// Cores returns the number of cores in the enclave. Cores are identified
// by simkern.CoreID values 0..Cores()-1.
func (v *Env) Cores() int { return v.enclave.kernel.CoreCount() }

// CommitRun commits a "place task t on core c" transaction.
func (v *Env) CommitRun(c simkern.CoreID, t *simkern.Task) error {
	if err := v.enclave.kernel.RunTask(c, t); err != nil {
		v.enclave.stats.Failed++
		return err
	}
	v.enclave.stats.Commits++
	return nil
}

// CommitPreempt commits a "preempt core c" transaction, returning the
// displaced task.
func (v *Env) CommitPreempt(c simkern.CoreID) (*simkern.Task, error) {
	t, err := v.enclave.kernel.Preempt(c)
	if err != nil {
		v.enclave.stats.Failed++
		return nil, err
	}
	v.enclave.stats.Commits++
	return t, nil
}

// RunningTask returns the task currently on core c, or nil.
func (v *Env) RunningTask(c simkern.CoreID) *simkern.Task {
	return v.enclave.kernel.RunningTask(c)
}

// TaskCPUConsumed returns t's CPU consumption as of now, including the
// in-progress segment.
func (v *Env) TaskCPUConsumed(t *simkern.Task) time.Duration {
	return v.enclave.kernel.TaskCPUConsumed(t)
}

// CPUReachedAt returns the instant at which running task t's consumption
// reaches cpu if it keeps its core (see simkern.Kernel.CPUReachedAt).
func (v *Env) CPUReachedAt(t *simkern.Task, cpu time.Duration) time.Duration {
	return v.enclave.kernel.CPUReachedAt(t, cpu)
}

// SetTimer schedules fn at absolute simulation time at.
func (v *Env) SetTimer(at time.Duration, fn func()) simkern.TimerID {
	return v.enclave.kernel.SetTimer(at, fn)
}

// CancelTimer cancels a pending timer.
func (v *Env) CancelTimer(id simkern.TimerID) bool {
	return v.enclave.kernel.CancelTimer(id)
}

// UtilLast returns core c's utilization over the last completed sampling
// window (the simulated psutil/shared-memory readout).
func (v *Env) UtilLast(c simkern.CoreID) float64 {
	return v.enclave.kernel.UtilLast(c)
}

// RecordsUtil reports whether the kernel records utilization over time
// (simkern.Config.RecordUtil): a policy's own time series are read only
// then, so it should record them only then.
func (v *Env) RecordsUtil() bool { return v.enclave.kernel.RecordsUtil() }

// Outstanding returns the number of unfinished tasks in the kernel.
func (v *Env) Outstanding() int { return v.enclave.kernel.Outstanding() }

// AddTask registers a new task mid-run (agents in ghOSt can spawn work —
// the Firecracker layer uses this for the threads a booted microVM forks).
func (v *Env) AddTask(t *simkern.Task) error { return v.enclave.kernel.AddTask(t) }

// AbortTask fails an admitted-but-never-run task (microVM launch failure,
// fault-injected kill after eviction). No TASK_DEAD message is emitted.
func (v *Env) AbortTask(t *simkern.Task) error { return v.enclave.kernel.AbortTask(t) }

// AdmitTask registers a task through the kernel's lazy-admission path:
// the arrival orders as if the task had been pre-seeded before the clock
// started. The fault layer uses it to re-admit retried invocations at
// their backoff instant; past arrivals are rejected.
func (v *Env) AdmitTask(t *simkern.Task) error { return v.enclave.kernel.AdmitTask(t) }

// SetFaultTimer schedules fn at absolute time at in the fault ordering
// class: it fires after every same-instant normal event. Cancellable via
// CancelTimer. See simkern.Kernel.SetFaultTimer.
func (v *Env) SetFaultTimer(at time.Duration, fn func()) simkern.TimerID {
	return v.enclave.kernel.SetFaultTimer(at, fn)
}

// NoteMigration lets a policy record a core migration in enclave stats.
func (v *Env) NoteMigration() { v.enclave.stats.Migrations++ }

// InvalidateHorizon tells the enclave that scheduling state changed
// outside a message or tick — a policy-owned timer such as the hybrid's
// monitor or a migration unlock — so the next-decision horizon must be
// re-evaluated. No-op under the naive tick pump, and never moves the
// tick phase grid (policy timers do not re-phase the naive pump either).
func (v *Env) InvalidateHorizon() {
	if v.enclave.hticker != nil {
		v.enclave.hRearm()
	}
}
