// Package cfs implements a faithful-in-mechanism model of the Linux
// Completely Fair Scheduler (§III-C): per-core runqueues ordered by
// virtual runtime in a red-black tree, time slices derived from the
// scheduling latency divided by the number of runnable tasks (floored at
// the minimum granularity), wakeup placement on the least-loaded core with
// wakeup preemption, and idle load balancing that pulls from the busiest
// queue.
//
// Like internal/policy/fifo, the package exposes a reusable Engine (the
// hybrid scheduler's long-task group) and a standalone Policy.
package cfs

import (
	"sync"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/queue"
	"github.com/faassched/faassched/internal/simkern"
)

// Params are the CFS tunables; zero fields take the defaults below,
// which correspond to a large-core-count server's effective values.
type Params struct {
	// SchedLatency is the target period in which every runnable task runs
	// once (sysctl kernel.sched_latency_ns).
	SchedLatency time.Duration
	// MinGranularity floors the per-task slice
	// (sysctl kernel.sched_min_granularity_ns).
	MinGranularity time.Duration
	// WakeupGranularity limits wakeup preemption: a waking task preempts
	// only if its vruntime is behind the runner's by more than this
	// (sysctl kernel.sched_wakeup_granularity_ns).
	WakeupGranularity time.Duration
	// Tick is the agent's periodic slice-check period.
	Tick time.Duration
}

// Default CFS tunables.
const (
	DefaultSchedLatency      = 24 * time.Millisecond
	DefaultMinGranularity    = 3 * time.Millisecond
	DefaultWakeupGranularity = time.Millisecond
	DefaultTick              = time.Millisecond
)

func (p Params) withDefaults() Params {
	if p.SchedLatency == 0 {
		p.SchedLatency = DefaultSchedLatency
	}
	if p.MinGranularity == 0 {
		p.MinGranularity = DefaultMinGranularity
	}
	if p.WakeupGranularity == 0 {
		p.WakeupGranularity = DefaultWakeupGranularity
	}
	if p.Tick == 0 {
		p.Tick = DefaultTick
	}
	return p
}

// taskData is the per-task CFS bookkeeping kept in Task.PolicyData. The
// runqueue node is embedded, so queueing a task allocates nothing, and the
// record itself is engine-owned: drawn from the engine's free list on
// first enqueue, zeroed and returned there at TASK_DEAD or Evict. Its
// presence is also the hybrid scheduler's group tag: the hybrid reads a
// task's group through Owns, and keeps no table of its own.
type taskData struct {
	node         queue.Node // runqueue link; Value is the task
	queued       bool       // node is linked into core's tree
	vruntime     time.Duration
	core         simkern.CoreID // runqueue the task belongs to
	lastConsumed time.Duration  // Task CPU consumption at dispatch
}

// runqueue is one core's CFS state.
type runqueue struct {
	id         simkern.CoreID
	in         bool // the core is in the group
	tree       queue.RBTree
	minV       time.Duration // monotone floor for newcomers' vruntime
	curr       *simkern.Task
	sliceStart time.Duration
}

func (rq *runqueue) nrRunning() int {
	n := rq.tree.Len()
	if rq.curr != nil {
		n++
	}
	return n
}

// Engine is the CFS scheduling core over a dynamic set of cores. Runqueue
// lookup is a dense slice indexed by CoreID (this sits on the per-event
// hot path: the tick slice check, idle balance, and wakeup placement all
// resolve runqueues, and a map lookup per resolution dominated simulation
// profiles). The runqueues are values, one per enclave core, and both
// slices are sized once for every enclave core, so a core joining or
// leaving the group never allocates.
type Engine struct {
	env    *ghost.Env
	params Params
	byCore []runqueue       // indexed by CoreID; in marks group members
	cores  []simkern.CoreID // group members in iteration order
	free   []*taskData      // released records, reused by data
	// slices[n] is the slice of a runqueue with n runnable tasks (see
	// sliceTable), shared by every engine with the same Params; floored
	// says every longer runqueue gets MinGranularity.
	slices  []time.Duration
	floored bool
}

// maxSliceTable bounds the slice table for tunables whose floor point
// lies far out (a tiny MinGranularity); longer runqueues divide.
const maxSliceTable = 64

// sliceTable returns each runqueue length's slice, SchedLatency/n floored
// at MinGranularity, for n from 0 (sliced as 1) up to the floor point —
// the first n whose quotient falls below MinGranularity — and whether it
// reached it. A non-negative SchedLatency's quotients never grow with n,
// so past the floor point every slice is MinGranularity. The table is
// one allocation of its exact length.
func sliceTable(p Params) ([]time.Duration, bool) {
	size, floored := maxSliceTable, false
	for n := 1; n < maxSliceTable; n++ {
		if p.SchedLatency >= 0 && p.SchedLatency/time.Duration(n) < p.MinGranularity {
			size, floored = n+1, true
			break
		}
	}
	table := make([]time.Duration, size)
	for n := range table {
		table[n] = max(p.SchedLatency/time.Duration(max(n, 1)), p.MinGranularity)
	}
	return table, floored
}

// sliceTables holds one slice table per Params, shared by every engine
// built with them: a table is read-only once made, and a fleet builds
// thousands of engines with the same tunables.
var sliceTables struct {
	sync.Mutex
	m map[Params]sharedSlices
}

type sharedSlices struct {
	slices  []time.Duration
	floored bool
}

// sharedSliceTable returns p's slice table (sliceTable), making it the
// first time p is seen.
func sharedSliceTable(p Params) ([]time.Duration, bool) {
	sliceTables.Lock()
	defer sliceTables.Unlock()
	t, ok := sliceTables.m[p]
	if !ok {
		if sliceTables.m == nil {
			sliceTables.m = make(map[Params]sharedSlices)
		}
		t.slices, t.floored = sliceTable(p)
		sliceTables.m[p] = t
	}
	return t.slices, t.floored
}

// Init sets e, a zero Engine, up over the cores [first, end) of env's
// enclave; the others may join later through AddCore.
func (e *Engine) Init(env *ghost.Env, first, end simkern.CoreID, params Params) {
	e.env = env
	e.params = params.withDefaults()
	e.slices, e.floored = sharedSliceTable(e.params)
	e.byCore = make([]runqueue, env.Cores())
	e.cores = make([]simkern.CoreID, 0, env.Cores())
	for c := first; c < end; c++ {
		e.AddCore(c)
	}
}

// data returns t's CFS record, attaching a clean one from the free list
// when t has none yet.
func (e *Engine) data(t *simkern.Task) *taskData {
	if d, ok := t.PolicyData.(*taskData); ok {
		return d
	}
	var d *taskData
	if n := len(e.free); n > 0 {
		d = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		d = &taskData{}
	}
	t.PolicyData = d
	return d
}

// release detaches t's record, zeroes it and returns it to the free list.
// The engine must hold no further reference to t: it is neither queued
// nor rq.curr anywhere.
func (e *Engine) release(t *simkern.Task) {
	d, ok := t.PolicyData.(*taskData)
	if !ok {
		return
	}
	if d.queued {
		panic("cfs: releasing a queued task")
	}
	*d = taskData{}
	t.PolicyData = nil
	e.free = append(e.free, d)
}

// link queues t on rq's tree under its current vruntime.
func (rq *runqueue) link(t *simkern.Task, d *taskData) {
	d.core = rq.id
	d.node.Key = queue.Key{Weight: int64(d.vruntime), ID: uint64(t.ID)}
	d.node.Value = t
	d.queued = true
	rq.tree.Insert(&d.node)
}

// unlink removes d's node from rq's tree.
func (rq *runqueue) unlink(d *taskData) {
	rq.tree.Delete(&d.node)
	d.queued = false
}

// rq resolves core c's runqueue, nil when c is not in the group.
func (e *Engine) rq(c simkern.CoreID) *runqueue {
	if c < 0 || int(c) >= len(e.byCore) || !e.byCore[c].in {
		return nil
	}
	return &e.byCore[c]
}

// Cores returns the cores currently in the group in iteration order (not
// a copy; callers must not mutate).
func (e *Engine) Cores() []simkern.CoreID { return e.cores }

// NrRunning returns the number of runnable tasks (incl. running) on c.
func (e *Engine) NrRunning(c simkern.CoreID) int {
	rq := e.rq(c)
	if rq == nil {
		return 0
	}
	return rq.nrRunning()
}

// TotalRunnable returns the number of runnable tasks across the group.
func (e *Engine) TotalRunnable() int {
	n := 0
	for _, c := range e.cores {
		n += e.byCore[c].nrRunning()
	}
	return n
}

// AddCore adds an enclave core to the group with an empty runqueue.
func (e *Engine) AddCore(c simkern.CoreID) {
	if c < 0 || int(c) >= len(e.byCore) {
		panic("cfs: AddCore of a core outside the enclave")
	}
	if e.byCore[c].in {
		return
	}
	e.byCore[c] = runqueue{id: c, in: true}
	e.cores = append(e.cores, c)
}

// RemoveCore removes c from the group and returns every task that was
// queued or running on it (the running task is preempted). This is step
// "Task Preemption" + "Task Migration" of the paper's Fig 8 protocol; the
// caller redistributes the returned tasks.
func (e *Engine) RemoveCore(c simkern.CoreID) []*simkern.Task {
	rq := e.rq(c)
	if rq == nil {
		return nil
	}
	var out []*simkern.Task
	if rq.curr != nil {
		if got, err := e.env.CommitPreempt(c); err == nil {
			e.chargeRuntime(got)
			out = append(out, got)
		}
		// On failure the task completed under us; the TASK_DEAD message
		// is in flight and needs no action.
		rq.curr = nil
	}
	rq.tree.InOrder(func(n *queue.Node) bool {
		t := n.Value.(*simkern.Task)
		e.data(t).queued = false // the tree is dropped whole
		out = append(out, t)
		return true
	})
	*rq = runqueue{}
	for i, id := range e.cores {
		if id == c {
			e.cores = append(e.cores[:i], e.cores[i+1:]...)
			break
		}
	}
	return out
}

// Enqueue places t on the least-loaded core's runqueue (CFS wakeup
// placement).
func (e *Engine) Enqueue(t *simkern.Task) {
	best := simkern.NoCore
	bestN := int(^uint(0) >> 1)
	for _, c := range e.cores {
		if n := e.byCore[c].nrRunning(); n < bestN {
			bestN = n
			best = c
		}
	}
	if best == simkern.NoCore {
		panic("cfs: Enqueue with no cores in group")
	}
	e.EnqueueOn(best, t)
}

// EnqueueOn places t on core c's runqueue. The hybrid scheduler uses it to
// spill expired FIFO tasks round-robin across the CFS cores (§IV-A: "the
// preempted tasks from the FIFO cores will be evenly distributed to the
// CFS cores in a Round-Robin way").
func (e *Engine) EnqueueOn(c simkern.CoreID, t *simkern.Task) {
	rq := e.rq(c)
	if rq == nil {
		panic("cfs: EnqueueOn unknown core")
	}
	d := e.data(t)
	if d.vruntime < rq.minV {
		d.vruntime = rq.minV
	}
	rq.link(t, d)
	if rq.curr == nil {
		e.pickNext(rq)
		return
	}
	e.maybeWakeupPreempt(rq, d)
}

// maybeWakeupPreempt preempts the runner if the newly queued task is
// entitled to run by more than the wakeup granularity.
func (e *Engine) maybeWakeupPreempt(rq *runqueue, newcomer *taskData) {
	currD := e.data(rq.curr)
	currV := currD.vruntime + (e.env.TaskCPUConsumed(rq.curr) - currD.lastConsumed)
	if newcomer.vruntime+e.params.WakeupGranularity >= currV {
		return
	}
	got, err := e.env.CommitPreempt(rq.id)
	if err != nil {
		// The runner completed under us; its TASK_DEAD is in flight.
		return
	}
	e.chargeRuntime(got)
	rq.link(got, e.data(got))
	rq.curr = nil
	e.pickNext(rq)
}

// chargeRuntime advances a preempted task's vruntime by the CPU it
// consumed in the segment that just ended.
func (e *Engine) chargeRuntime(t *simkern.Task) {
	d := e.data(t)
	d.vruntime += t.CPUConsumed() - d.lastConsumed
	d.lastConsumed = t.CPUConsumed()
}

// pickNext dispatches the leftmost task on rq, stealing from the busiest
// runqueue when rq is empty (idle balance).
func (e *Engine) pickNext(rq *runqueue) {
	if rq.tree.Len() == 0 && !e.stealInto(rq) {
		return
	}
	t := rq.tree.Min().Value.(*simkern.Task)
	d := e.data(t)
	rq.unlink(d)
	if err := e.env.CommitRun(rq.id, t); err != nil {
		// Kernel-side race (should not happen in-sim); requeue and bail.
		rq.link(t, d)
		return
	}
	rq.curr = t
	rq.sliceStart = e.env.Now()
	d.lastConsumed = t.CPUConsumed()
	if d.vruntime > rq.minV {
		rq.minV = d.vruntime
	}
}

// stealInto pulls the largest-vruntime task from the busiest other
// runqueue into rq; it reports whether anything was stolen.
func (e *Engine) stealInto(rq *runqueue) bool {
	var busiest *runqueue
	for _, c := range e.cores {
		other := &e.byCore[c]
		if other == rq || other.tree.Len() == 0 {
			continue
		}
		if busiest == nil || other.tree.Len() > busiest.tree.Len() {
			busiest = other
		}
	}
	if busiest == nil {
		return false
	}
	t := busiest.tree.Max().Value.(*simkern.Task)
	d := e.data(t)
	busiest.unlink(d)
	// Re-base vruntime across queues, as migrate_task_rq_fair does.
	d.vruntime = d.vruntime - busiest.minV + rq.minV
	if d.vruntime < 0 {
		d.vruntime = 0
	}
	rq.link(t, d)
	return true
}

// Evict removes t from the engine — deleted from its runqueue tree if
// queued, preempted (and the queue refilled) if running — and reports
// whether the engine owned it. A false return means t is not here,
// typically because its completion message is in flight. Implements the
// engine half of ghost.TaskEvictor. The evicted task's vruntime is not
// charged: the caller aborts it, so its CFS record is released unread.
func (e *Engine) Evict(t *simkern.Task) bool {
	d, ok := t.PolicyData.(*taskData)
	if !ok {
		return false
	}
	rq := e.rq(d.core)
	if rq == nil {
		return false
	}
	if d.queued {
		rq.unlink(d)
		e.release(t)
		return true
	}
	if rq.curr == t {
		if _, err := e.env.CommitPreempt(rq.id); err != nil {
			return false // completion in flight
		}
		rq.curr = nil
		e.pickNext(rq)
		e.release(t)
		return true
	}
	return false
}

// TaskDead handles a completion on core c and releases t's CFS record.
func (e *Engine) TaskDead(t *simkern.Task, c simkern.CoreID) {
	e.release(t)
	rq := e.rq(c)
	if rq == nil {
		// The core migrated away between completion and message delivery.
		return
	}
	if rq.curr == t {
		rq.curr = nil
	}
	e.pickNext(rq)
}

// Tick runs the periodic slice check on every core: a runner that used up
// its slice is preempted in favor of the leftmost queued task. Idle cores
// attempt a pick (which includes idle balance).
func (e *Engine) Tick() {
	now := e.env.Now()
	for _, c := range e.cores {
		rq := &e.byCore[c]
		if rq.curr == nil {
			e.pickNext(rq)
			continue
		}
		if rq.tree.Len() == 0 {
			continue // sole runnable task keeps the core
		}
		slice := e.slice(rq.nrRunning())
		if now-rq.sliceStart < slice {
			continue
		}
		got, err := e.env.CommitPreempt(c)
		if err != nil {
			continue // completion in flight
		}
		e.chargeRuntime(got)
		rq.link(got, e.data(got))
		rq.curr = nil
		e.pickNext(rq)
	}
}

// NextDecision computes the earliest instant at which Tick could change
// scheduling state — the tick-elision horizon (ghost.HorizonTicker,
// DESIGN.md §9). Per runqueue: an idle core next to any queued task acts
// at the very next boundary (pickNext / idle balance); a runner with an
// empty tree holds its core indefinitely; otherwise the runner's slice
// expires at sliceStart + slice(rq), exact in wall time regardless of
// interference. Engine state only changes inside message handling, ticks,
// or the hybrid's monitor callbacks — all of which re-evaluate the
// horizon — so the minimum below stays valid until the next re-evaluation.
// A runner whose completion message is still in flight contributes a
// horizon whose tick then fails its preempt harmlessly, exactly as the
// naive pump's boundary tick would.
func (e *Engine) NextDecision(now time.Duration) (time.Duration, bool) {
	queued := false
	for _, c := range e.cores {
		if e.byCore[c].tree.Len() > 0 {
			queued = true
			break
		}
	}
	var best time.Duration
	found := false
	for _, c := range e.cores {
		rq := &e.byCore[c]
		if rq.curr == nil {
			if queued {
				return now, true
			}
			continue
		}
		if rq.tree.Len() == 0 {
			continue // sole runnable task keeps the core
		}
		h := rq.sliceStart + e.slice(rq.nrRunning())
		if h < now {
			h = now
		}
		if !found || h < best {
			best, found = h, true
		}
	}
	return best, found
}

// slice returns the time slice of a runqueue's runner with n runnable
// tasks: SchedLatency shared among them, floored at MinGranularity. It
// runs for every contended runqueue in each Tick and NextDecision, so it
// looks the slice up in the engine's table rather than dividing.
func (e *Engine) slice(n int) time.Duration {
	if n < len(e.slices) {
		return e.slices[n]
	}
	if e.floored {
		return e.params.MinGranularity
	}
	return max(e.params.SchedLatency/time.Duration(n), e.params.MinGranularity)
}

// Vruntime exposes a task's current vruntime (tests and debugging). It is
// meaningful only while the task is live: the engine releases the record
// at TASK_DEAD and Evict, after which Vruntime reports 0.
func Vruntime(t *simkern.Task) time.Duration {
	if d, ok := t.PolicyData.(*taskData); ok {
		return d.vruntime
	}
	return 0
}

// Owns reports whether t holds a CFS record: from the engine's first
// enqueue of t until its TASK_DEAD or Evict releases the record.
func Owns(t *simkern.Task) bool {
	_, ok := t.PolicyData.(*taskData)
	return ok
}

// Policy is the standalone ghost.Policy: CFS spanning every enclave core.
type Policy struct {
	params Params
	engine Engine
}

var (
	_ ghost.Policy        = (*Policy)(nil)
	_ ghost.HorizonTicker = (*Policy)(nil)
	_ ghost.TaskEvictor   = (*Policy)(nil)
)

// New returns a standalone CFS policy.
func New(params Params) *Policy {
	return &Policy{params: params.withDefaults()}
}

// Name implements ghost.Policy.
func (p *Policy) Name() string { return "cfs" }

// Attach implements ghost.Policy.
func (p *Policy) Attach(env *ghost.Env) {
	p.engine.Init(env, 0, simkern.CoreID(env.Cores()), p.params)
}

// OnMessage implements ghost.Policy.
func (p *Policy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.engine.Enqueue(m.Task)
	case ghost.MsgTaskDead:
		p.engine.TaskDead(m.Task, m.Core)
	}
}

// TickEvery implements ghost.Ticker.
func (p *Policy) TickEvery() time.Duration { return p.params.Tick }

// OnTick implements ghost.Ticker.
func (p *Policy) OnTick() { p.engine.Tick() }

// NextDecision implements ghost.HorizonTicker.
func (p *Policy) NextDecision(now time.Duration) (time.Duration, bool) {
	return p.engine.NextDecision(now)
}

// EvictTask implements ghost.TaskEvictor.
func (p *Policy) EvictTask(t *simkern.Task) bool { return p.engine.Evict(t) }
