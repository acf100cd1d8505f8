package simkern

import (
	"errors"
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/stats"
)

// Errors returned by kernel mechanism calls. Policies are expected to
// handle ErrCoreBusy/ErrCoreIdle races gracefully (they mirror ghOSt's
// failed transaction commits).
var (
	ErrNoHandler   = errors.New("simkern: Run called before SetHandler")
	ErrBadCore     = errors.New("simkern: core id out of range")
	ErrCoreBusy    = errors.New("simkern: core already has a running task")
	ErrCoreIdle    = errors.New("simkern: core has no running task")
	ErrNotRunnable = errors.New("simkern: task is not runnable")
	ErrBadTask     = errors.New("simkern: invalid task")
)

// Config configures a simulated kernel.
type Config struct {
	// Cores is the number of CPU cores in the enclave. Must be >= 1.
	Cores int
	// SwitchCost is the direct context-switch cost: the core makes no task
	// progress for this long after each dispatch.
	SwitchCost time.Duration
	// CachePenalty is added to a task's outstanding service demand each
	// time it is preempted mid-run, modeling cold-cache refill.
	CachePenalty time.Duration
	// Interference models host-OS time stolen from enclave tasks.
	// Nil means the enclave owns its cores outright.
	Interference Interference
	// SampleEvery is the period of the per-core utilization sampler.
	// The sampler runs only on a kernel that has a reader: a registered
	// utilization reader (RegisterUtilReader) or RecordUtil. A kernel
	// nothing reads publishes no points and pays nothing for them. Zero
	// disables sampling; a reader then is an error (RegisterUtilReader).
	// The sampler is virtual: its grid points are not heap events, so
	// they add nothing to EventSeq or to Run's count, yet each point is
	// published exactly where a periodic event armed at the previous
	// point would have fired (DESIGN.md §16).
	SampleEvery time.Duration
	// RecordUtil keeps the full per-core utilization history (needed by
	// the utilization-over-time figures). Requires SampleEvery > 0.
	// Policies read it through Kernel.RecordsUtil: the hybrid records its
	// monitor series only when it is set (DESIGN.md §17).
	RecordUtil bool
	// DiscardTasks stops the kernel from retaining the task table: Tasks()
	// returns nil and finished tasks hold no kernel reference, so callers
	// may recycle them (Task.Recycle) once the scheduling layer has seen
	// their TASK_DEAD message. The streaming dataflow uses this to keep
	// memory proportional to active tasks instead of total invocations;
	// metrics must then be gathered through a completion sink rather than
	// metrics.Collect.
	DiscardTasks bool
	// Probe observes core occupancy for trace export. Nil (the default)
	// disables observation; the hot completion/preemption paths then pay
	// exactly one nil check. Probes must not call back into the kernel.
	Probe Probe
}

// Probe receives core-occupancy notifications when configured. The
// observability layer implements it; the kernel never depends on what
// the probe does with the data.
type Probe interface {
	// SegmentEnd fires when a task leaves a core — at completion
	// (done=true) or preemption (done=false). start is when the segment
	// began making CPU progress (post switch cost); a preemption during
	// the switch window can report start > end.
	SegmentEnd(t *Task, c CoreID, start, end time.Duration, done bool)
}

// DefaultConfig returns the configuration used throughout the experiments:
// 5 µs direct switch cost and 50 µs cold-cache penalty, and a 100 ms
// utilization sampling period, which runs only on a kernel with a
// utilization reader (SampleEvery).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:        cores,
		SwitchCost:   5 * time.Microsecond,
		CachePenalty: 50 * time.Microsecond,
		SampleEvery:  100 * time.Millisecond,
	}
}

// Handler receives kernel notifications. The ghost layer implements it and
// forwards the notifications to policies as messages.
type Handler interface {
	// OnTaskArrived fires when a task reaches its arrival time and becomes
	// runnable.
	OnTaskArrived(t *Task)
	// OnTaskFinished fires when a task completes; c is the core it ran on.
	OnTaskFinished(t *Task, c CoreID)
}

// DrainHandler is an optional Handler extension: OnKernelDrained fires
// when the outstanding count reaches zero through a path that emits no
// handler notification — today only AbortTask (completions already notify
// via OnTaskFinished). The delegation layer's tick-elision pump relies on
// it to keep its tick-grid lifecycle exact when an agent aborts the last
// outstanding task.
type DrainHandler interface {
	OnKernelDrained()
}

// core is the kernel-internal per-CPU state.
type core struct {
	id   CoreID
	task *Task

	busyAccum      time.Duration // total busy time up to busySince validity
	busySince      time.Duration // start of current busy span (task != nil)
	lastSampleBusy time.Duration
	lastUtil       float64
	utilHist       *stats.Series

	switches    int64
	preemptions int64
}

// Kernel is the simulated machine: cores, clock, event loop, and task
// table. Create with New, drive with AddTask/Run, and control placement
// through RunTask/Preempt from the Handler's callbacks.
//
// Kernel is not safe for concurrent use; the simulation is single-threaded
// by design (determinism).
type Kernel struct {
	cfg     Config
	loop    eventLoop
	now     time.Duration
	cores   []core // indexed by CoreID
	handler Handler
	interf  Interference

	tasks       []*Task // nil when cfg.DiscardTasks
	added       int
	finished    int
	admitting   bool // a lazy admitter may still admit (SetAdmissionOpen)
	makespan    time.Duration
	timers      map[TimerID]*event // made by the first cancellable timer
	nextTimerID TimerID

	// Virtual sampler (DESIGN.md §16): while sampling, the next grid point
	// is sampleAt and it orders like a classRun event with sequence number
	// just above sampleSeq, the loop's seq when the point was armed. It is
	// armed only when utilReader or RecordUtil is set; sampleSteps counts
	// its publishing steps.
	utilReader  bool
	sampling    bool
	sampleAt    time.Duration
	sampleSeq   uint64
	sampleSteps uint64
}

// New validates cfg and returns a kernel. Without RecordUtil the kernel,
// its event loop and its cores take two allocations: the loop is
// embedded and the cores sit in one slice of values.
func New(cfg Config) (*Kernel, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("simkern: Cores must be >= 1, got %d", cfg.Cores)
	}
	if cfg.SwitchCost < 0 || cfg.CachePenalty < 0 {
		return nil, fmt.Errorf("simkern: negative cost (switch %v, cache %v)", cfg.SwitchCost, cfg.CachePenalty)
	}
	if cfg.SampleEvery < 0 {
		return nil, fmt.Errorf("simkern: SampleEvery must be >= 0, got %v", cfg.SampleEvery)
	}
	if cfg.RecordUtil && cfg.SampleEvery == 0 {
		return nil, errors.New("simkern: RecordUtil requires SampleEvery > 0")
	}
	interf := cfg.Interference
	if interf == nil {
		interf = noInterference{}
	}
	if p, ok := interf.(PeriodicInterference); ok {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	k := &Kernel{cfg: cfg, interf: interf, cores: make([]core, cfg.Cores)}
	for i := range k.cores {
		c := &k.cores[i]
		c.id = CoreID(i)
		if cfg.RecordUtil {
			c.utilHist = stats.NewSeries(fmt.Sprintf("core%d", i))
		}
	}
	return k, nil
}

// SetHandler registers the scheduling handler. Must be called before Run.
func (k *Kernel) SetHandler(h Handler) { k.handler = h }

// Now returns the current simulation time.
func (k *Kernel) Now() time.Duration { return k.now }

// CoreCount returns the number of cores.
func (k *Kernel) CoreCount() int { return len(k.cores) }

// RecordsUtil reports whether the kernel was built with RecordUtil: the
// run feeds utilization-over-time figures, so observers should record.
func (k *Kernel) RecordsUtil() bool { return k.cfg.RecordUtil }

// RegisterUtilReader declares that something will read UtilLast, so Run
// samples utilization every SampleEvery. Register before the first Run;
// a kernel nobody registers on (and without RecordUtil) never samples,
// and UtilLast on it panics. It fails on a kernel with SampleEvery 0,
// where there is nothing to read.
func (k *Kernel) RegisterUtilReader() error {
	if k.cfg.SampleEvery == 0 {
		return errors.New("simkern: a utilization reader needs SampleEvery > 0, got 0")
	}
	k.utilReader = true
	return nil
}

// SamplesUtil reports whether Run samples utilization: SampleEvery is
// set and a reader is registered or RecordUtil is on.
func (k *Kernel) SamplesUtil() bool {
	return k.cfg.SampleEvery > 0 && (k.utilReader || k.cfg.RecordUtil)
}

// SampleSteps returns how many publishing steps the sampler has taken;
// one step publishes every grid point up to the next real event, so the
// count is a host-independent measure of the sampler's work. It is 0 on a
// kernel that does not sample.
func (k *Kernel) SampleSteps() uint64 { return k.sampleSteps }

// Outstanding returns the number of added tasks that have not finished,
// plus one while admission is open (SetAdmissionOpen).
func (k *Kernel) Outstanding() int {
	if k.admitting {
		return k.added - k.finished + 1
	}
	return k.added - k.finished
}

// SetAdmissionOpen declares whether a lazy admitter may still admit tasks.
// A pre-seeded kernel counts its future arrivals as outstanding from the
// start; while admission is open, Outstanding counts one task not yet
// admitted in their place. Everything that keeps running only while work
// is outstanding — the agent-tick grid, the hybrid's monitor, the
// utilization sampler — then behaves as it would pre-seeded, so lazy
// admission equals pre-seeding however long the machine idles between
// admissions (DESIGN.md §7). Close admission once the last task is
// admitted, before draining.
func (k *Kernel) SetAdmissionOpen(open bool) { k.admitting = open }

// Tasks returns all tasks ever added, in addition order — or nil when the
// kernel was built with DiscardTasks. Callers must not mutate kernel-owned
// fields.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// Makespan returns the completion time of the last finished task so far.
func (k *Kernel) Makespan() time.Duration { return k.makespan }

// AddTask registers a task. Arrival times in the past are clamped to now
// (used by the Firecracker layer, which spawns threads mid-run). The task's
// runtime fields must be zero: a Task may be added to exactly one kernel
// (or re-added after Task.Recycle).
func (k *Kernel) AddTask(t *Task) error {
	if t != nil && t.state == 0 && t.Arrival < k.now {
		t.Arrival = k.now
	}
	return k.addTask(t, classRun)
}

// AdmitTask registers a task through the lazy-admission path: the arrival
// event is filed under the admit ordering class, so it fires before any
// same-instant run-time event — exactly as if the task had been added
// before the clock started. Unlike AddTask, past arrivals are rejected
// rather than clamped: an admitter that falls behind simulated time cannot
// be order-equivalent to pre-seeding, so that is a bug at the call site.
func (k *Kernel) AdmitTask(t *Task) error {
	if t != nil && t.Arrival < k.now {
		return fmt.Errorf("%w: admission at %v after arrival %v", ErrBadTask, k.now, t.Arrival)
	}
	return k.addTask(t, classAdmit)
}

func (k *Kernel) addTask(t *Task, class uint8) error {
	if t == nil || t.Work <= 0 {
		return fmt.Errorf("%w: nil or non-positive work", ErrBadTask)
	}
	if t.state != 0 {
		return fmt.Errorf("%w: task already added (state %v)", ErrBadTask, t.state)
	}
	t.state = StateNew
	t.core = NoCore
	t.firstRun = NoTime
	t.finish = NoTime
	k.added++
	if !k.cfg.DiscardTasks {
		k.tasks = append(k.tasks, t)
	}
	ev := k.loop.scheduleClass(t.Arrival, evArrival, class)
	ev.task = t
	t.arrival = ev
	return nil
}

// Run processes events until the event queue drains or the horizon is
// reached (horizon 0 means no limit). It returns the number of events
// processed; sampler grid points are not events and do not count. A
// Run(h) with h > 0 that finds nothing pending at or before h leaves the
// clock on h whether or not the kernel samples, unless a stopping
// sampler returns first (below), so a later arrival or horizon before h
// is behind the clock. Run never moves the clock back: a horizon behind
// it runs nothing.
//
// On a kernel that samples (SamplesUtil), Run arms the sampler at
// now+SampleEvery unless it is still armed from an earlier call, and
// publishes each grid point before any real event it precedes in (time,
// class, seq) order. The sampler stops at the first point where no real
// event is pending and no task is outstanding; Run then returns with the
// clock on that point, short of a horizon beyond it. A Run(0) whose
// pending events are gone while tasks are still outstanding — a handler
// that never dispatched them — returns at once instead of sampling
// forever; the caller sees Outstanding() > 0.
func (k *Kernel) Run(horizon time.Duration) (int, error) {
	if k.handler == nil {
		return 0, ErrNoHandler
	}
	if !k.sampling && k.SamplesUtil() {
		k.sampling = true
		k.sampleAt = k.now + k.cfg.SampleEvery
		k.sampleSeq = k.loop.seq
	}
	processed := 0
	for {
		ev := k.loop.peek()
		if k.sampling && k.sampleFirst(ev) {
			if horizon > 0 && k.sampleAt > horizon {
				k.now = max(k.now, horizon)
				break
			}
			if ev == nil && horizon == 0 && k.Outstanding() > 0 {
				break // nothing left can ever run the outstanding tasks
			}
			if k.sample(ev, horizon) {
				break // stopped: nothing pending, nothing outstanding
			}
			continue
		}
		if ev == nil || (horizon > 0 && ev.at > horizon) {
			k.now = max(k.now, horizon)
			break
		}
		k.loop.pop(ev)
		k.now = ev.at
		k.dispatch(ev)
		processed++
	}
	return processed, nil
}

// dispatch copies the payload out of ev, recycles it, and runs the typed
// switch. Releasing first is safe — and required — because the handler
// code below may schedule new events, which reuse pooled structs.
func (k *Kernel) dispatch(ev *event) {
	kind, task, fn, id := ev.kind, ev.task, ev.fn, ev.id
	k.loop.release(ev)
	switch kind {
	case evArrival:
		task.arrival = nil
		if task.state != StateNew {
			return // aborted before arrival
		}
		task.state = StateRunnable
		k.handler.OnTaskArrived(task)
	case evCompletion:
		k.complete(&k.cores[task.core], task)
	case evTimer:
		if id != 0 {
			delete(k.timers, id)
		}
		fn()
	}
}

// RunTask places runnable task t on idle core c. The core spends SwitchCost
// in the context switch, then t consumes CPU (modulo interference) until
// completion or preemption.
func (k *Kernel) RunTask(c CoreID, t *Task) error {
	cr, err := k.core(c)
	if err != nil {
		return err
	}
	if t == nil {
		return ErrBadTask
	}
	if t.state != StateRunnable {
		return fmt.Errorf("%w: task %d is %v", ErrNotRunnable, t.ID, t.state)
	}
	if cr.task != nil {
		return fmt.Errorf("%w: core %d running task %d", ErrCoreBusy, c, cr.task.ID)
	}
	cr.task = t
	cr.busySince = k.now
	cr.switches++
	t.state = StateRunning
	t.core = c
	if t.firstRun == NoTime {
		t.firstRun = k.now
	}
	t.segStart = k.now + k.cfg.SwitchCost
	t.remainingAtGo = t.Work + t.extraWork - t.cpuConsumed
	completeAt := t.segStart + k.interf.Advance(c, t.segStart, t.remainingAtGo)
	ev := k.loop.schedule(completeAt, evCompletion)
	ev.task = t
	t.completion = ev
	return nil
}

// Preempt removes the task running on core c, returning it in Runnable
// state with its consumed CPU accounted and the cache penalty applied.
func (k *Kernel) Preempt(c CoreID) (*Task, error) {
	cr, err := k.core(c)
	if err != nil {
		return nil, err
	}
	t := cr.task
	if t == nil {
		return nil, fmt.Errorf("%w: core %d", ErrCoreIdle, c)
	}
	if k.cfg.Probe != nil {
		k.cfg.Probe.SegmentEnd(t, c, t.segStart, k.now, false)
	}
	k.loop.cancel(t.completion)
	t.completion = nil
	consumed := time.Duration(0)
	if k.now > t.segStart {
		consumed = k.interf.WorkDone(c, t.segStart, k.now-t.segStart)
		if consumed > t.remainingAtGo {
			consumed = t.remainingAtGo
		}
	}
	t.cpuConsumed += consumed
	if consumed > 0 {
		t.extraWork += k.cfg.CachePenalty
	}
	t.state = StateRunnable
	t.core = NoCore
	t.preemptions++
	cr.preemptions++
	cr.busyAccum += k.now - cr.busySince
	cr.task = nil
	return t, nil
}

// complete finishes task t on core cr at the current time.
func (k *Kernel) complete(cr *core, t *Task) {
	if k.cfg.Probe != nil {
		k.cfg.Probe.SegmentEnd(t, cr.id, t.segStart, k.now, true)
	}
	t.cpuConsumed += t.remainingAtGo
	t.remainingAtGo = 0
	t.completion = nil
	t.state = StateFinished
	t.finish = k.now
	t.core = NoCore
	cr.busyAccum += k.now - cr.busySince
	cr.task = nil
	k.finished++
	if k.now > k.makespan {
		k.makespan = k.now
	}
	k.handler.OnTaskFinished(t, cr.id)
}

// AbortTask marks a runnable (never-run) task as failed without notifying
// the handler: the task leaves the outstanding count but produces no
// TASK_DEAD message, mirroring an admission failure rather than a
// completion. The Firecracker layer uses it for microVM launch failures.
// A still-pending arrival event is cancelled, so an aborted task holds no
// kernel reference and satisfies Task.Recycle's contract.
func (k *Kernel) AbortTask(t *Task) error {
	if t == nil {
		return ErrBadTask
	}
	if t.state != StateRunnable && t.state != StateNew {
		return fmt.Errorf("%w: cannot abort task %d in state %v", ErrBadTask, t.ID, t.state)
	}
	if t.arrival != nil {
		k.loop.cancel(t.arrival)
		t.arrival = nil
	}
	t.state = StateFailed
	k.finished++
	if k.Outstanding() == 0 {
		if dh, ok := k.handler.(DrainHandler); ok {
			dh.OnKernelDrained()
		}
	}
	return nil
}

// SetTimer schedules fn at time at (clamped to now) and returns an id for
// CancelTimer.
func (k *Kernel) SetTimer(at time.Duration, fn func()) TimerID {
	if at < k.now {
		at = k.now
	}
	return k.addTimer(k.loop.schedule(at, evTimer), fn)
}

// SetFaultTimer is SetTimer with the fault ordering class: the callback
// fires after every same-instant normal event (completions, ticks,
// deliveries), whatever order the events were scheduled in. The fault
// layer uses it for crash sweeps and invocation timeouts, where the
// after-everything-else slot makes same-instant ties deterministic
// across dataflows. The returned id works with CancelTimer.
func (k *Kernel) SetFaultTimer(at time.Duration, fn func()) TimerID {
	if at < k.now {
		at = k.now
	}
	return k.addTimer(k.loop.scheduleClass(at, evTimer, classFault), fn)
}

// addTimer files a scheduled timer event under a fresh id for CancelTimer.
// The table is made on first use: most machines set no cancellable timer.
func (k *Kernel) addTimer(ev *event, fn func()) TimerID {
	if k.timers == nil {
		k.timers = make(map[TimerID]*event)
	}
	k.nextTimerID++
	id := k.nextTimerID
	ev.fn = fn
	ev.id = id
	k.timers[id] = ev
	return id
}

// EventSeq returns the sequence number of the most recently scheduled
// event, which is the count of events scheduled so far: the virtual
// sampler schedules none. The delegation layer compares snapshots of it
// to prove that no event was scheduled between two message emissions,
// which is the condition under which their deliveries may share one
// batch without perturbing the (time, seq) firing order.
func (k *Kernel) EventSeq() uint64 { return k.loop.seq }

// ScheduleFn schedules fn at time at (clamped to now) with no
// cancellation handle: unlike SetTimer it never touches the timer table,
// so it is the cheap path for callbacks that always fire — the delegation
// layer's agent ticks and message-batch flushes, which account for almost
// all timer traffic.
func (k *Kernel) ScheduleFn(at time.Duration, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.loop.schedule(at, evTimer).fn = fn
}

// CancelTimer cancels a pending timer; it reports whether the timer was
// still pending.
func (k *Kernel) CancelTimer(id TimerID) bool {
	ev, ok := k.timers[id]
	if !ok {
		return false
	}
	k.loop.cancel(ev)
	delete(k.timers, id)
	return true
}

// RunningTask returns the task currently on core c, or nil.
func (k *Kernel) RunningTask(c CoreID) *Task {
	if c < 0 || int(c) >= len(k.cores) {
		return nil
	}
	return k.cores[c].task
}

// TaskCPUConsumed returns t's CPU consumption as of the current instant,
// including progress inside the current running segment.
func (k *Kernel) TaskCPUConsumed(t *Task) time.Duration {
	if t.state != StateRunning {
		return t.cpuConsumed
	}
	if k.now <= t.segStart {
		return t.cpuConsumed
	}
	done := k.interf.WorkDone(t.core, t.segStart, k.now-t.segStart)
	if done > t.remainingAtGo {
		done = t.remainingAtGo
	}
	return t.cpuConsumed + done
}

// CPUReachedAt returns the instant at which running task t's consumption
// (TaskCPUConsumed) reaches cpu, should t keep its core that long: its
// segment start plus the interference model's Advance over the CPU still
// to go. Advance inverts WorkDone, so the instant is exact under
// interference too, and it is fixed for the segment. cpu must exceed
// t.CPUConsumed(), the consumption at t's dispatch; an instant past t's
// completion means t finishes first.
func (k *Kernel) CPUReachedAt(t *Task, cpu time.Duration) time.Duration {
	return t.segStart + k.interf.Advance(t.core, t.segStart, cpu-t.cpuConsumed)
}

// CoreBusy returns core c's cumulative busy time as of now.
func (k *Kernel) CoreBusy(c CoreID) time.Duration {
	cr, err := k.core(c)
	if err != nil {
		return 0
	}
	return cr.busyAt(k.now)
}

// CoreSwitches returns how many dispatches core c has performed.
func (k *Kernel) CoreSwitches(c CoreID) int64 {
	cr, err := k.core(c)
	if err != nil {
		return 0
	}
	return cr.switches
}

// CorePreemptions returns how many preemptions happened on core c.
func (k *Kernel) CorePreemptions(c CoreID) int64 {
	cr, err := k.core(c)
	if err != nil {
		return 0
	}
	return cr.preemptions
}

// UtilLast returns core c's utilization in the most recently completed
// sampling window, in [0, 1]. This mirrors the paper's psutil daemon that
// publishes per-core utilization through shared memory. It panics on a
// kernel that does not sample (SamplesUtil): its value would be a silent
// 0, so a reader must say so first with RegisterUtilReader.
func (k *Kernel) UtilLast(c CoreID) float64 {
	if !k.SamplesUtil() {
		panic("simkern: UtilLast on a kernel that does not sample utilization: call RegisterUtilReader before Run (SampleEvery > 0)")
	}
	cr, err := k.core(c)
	if err != nil {
		return 0
	}
	return cr.lastUtil
}

// UtilHistory returns core c's utilization time series, or nil when
// RecordUtil is disabled.
func (k *Kernel) UtilHistory(c CoreID) *stats.Series {
	cr, err := k.core(c)
	if err != nil {
		return nil
	}
	return cr.utilHist
}

func (k *Kernel) core(c CoreID) (*core, error) {
	if c < 0 || int(c) >= len(k.cores) {
		return nil, fmt.Errorf("%w: %d (have %d cores)", ErrBadCore, c, len(k.cores))
	}
	return &k.cores[c], nil
}

// sampleFirst reports whether the armed grid point fires before ev, the
// earliest pending real event (nil when there is none): it does when it
// is earlier, or at the same instant when ev is a fault timer or a
// classRun event scheduled after the point was armed.
func (k *Kernel) sampleFirst(ev *event) bool {
	if ev == nil || k.sampleAt < ev.at {
		return true
	}
	if k.sampleAt > ev.at {
		return false
	}
	return ev.class > classRun || (ev.class == classRun && ev.seq > k.sampleSeq)
}

// sample publishes the armed grid point (the simulated psutil daemon
// readout) together with every later point that also precedes ev and
// lies within the horizon, then re-arms the sampler — or stops it when
// nothing is pending and nothing is outstanding, and reports the stop.
// No core changes state between those points, so only the last window
// sets UtilLast; with RecordUtil every point is still appended. A
// re-armed point carries the loop's current seq, so it loses a
// same-instant tie to ev unless ev is a fault timer.
func (k *Kernel) sample(ev *event, horizon time.Duration) (stopped bool) {
	k.sampleSteps++
	every := k.cfg.SampleEvery
	first, last := k.sampleAt, k.sampleAt
	stop := ev == nil && k.Outstanding() == 0
	if !stop {
		limit := horizon // > 0 here: Run breaks on a stuck Run(0)
		if ev != nil {
			limit = ev.at
			if ev.class <= classRun {
				limit--
			}
			if horizon > 0 && horizon < limit {
				limit = horizon
			}
		}
		if limit > first {
			last += (limit - first) / every * every
		}
	}
	for i := range k.cores {
		cr := &k.cores[i]
		if cr.utilHist != nil {
			for at := first; at <= last; at += every {
				cr.publish(at, every)
			}
			continue
		}
		if last > first {
			cr.lastSampleBusy = cr.busyAt(last - every)
		}
		cr.publish(last, every)
	}
	k.now = last
	k.sampleAt = last + every
	k.sampleSeq = k.loop.seq
	if stop {
		k.sampling = false
	}
	return stop
}

// busyAt returns the core's cumulative busy time at instant at, which must
// not precede its last state change.
func (cr *core) busyAt(at time.Duration) time.Duration {
	if cr.task != nil {
		return cr.busyAccum + at - cr.busySince
	}
	return cr.busyAccum
}

// publish closes the sampling window ending at at.
func (cr *core) publish(at, every time.Duration) {
	busy := cr.busyAt(at)
	cr.lastUtil = float64(busy-cr.lastSampleBusy) / float64(every)
	cr.lastSampleBusy = busy
	if cr.utilHist != nil {
		cr.utilHist.Append(at, cr.lastUtil)
	}
}
