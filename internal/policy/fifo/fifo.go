// Package fifo implements the paper's centralized FIFO scheduling policy
// (§III-C, §IV-A): a single global task queue served by a group of cores,
// scheduled by one global agent. Tasks run to completion unless a quantum
// is configured, in which case tasks exceeding it are preempted and moved
// to the end of the global queue — the paper's "FIFO 100ms" variant (§II-D).
//
// The package exposes two layers: Engine, the reusable scheduling core the
// hybrid scheduler embeds for its short-task group, and Policy, a
// standalone ghost.Policy over a whole enclave.
package fifo

import (
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/queue"
	"github.com/faassched/faassched/internal/simkern"
)

// DefaultTick is the agent scan period used when a quantum is configured
// and Config.Tick is zero.
const DefaultTick = time.Millisecond

// Config configures a FIFO policy.
type Config struct {
	// Quantum preempts tasks whose current run segment exceeds it, moving
	// them to the back of the global queue. Zero means run-to-completion
	// (pure FIFO).
	Quantum time.Duration
	// Tick is the agent scan period for quantum enforcement; defaults to
	// DefaultTick when Quantum > 0.
	Tick time.Duration
}

// Engine is the centralized FIFO scheduling core: a global queue plus a
// dynamic set of cores it dispatches onto. It is driven externally by
// Enqueue/TaskDead/Tick; the standalone Policy wrapper and the hybrid
// scheduler both build on it. It keeps no per-task record and never
// touches Task.PolicyData, which the hybrid reads to tell its groups
// apart.
type Engine struct {
	env     *ghost.Env
	cores   []simkern.CoreID
	q       queue.Deque[*simkern.Task]
	quantum time.Duration
}

// Init sets e, a zero Engine, up over the cores [first, end) of env's
// enclave; the others may join later through AddCore, which never
// allocates: the core list is sized for every enclave core. quantum <= 0
// means run-to-completion.
func (e *Engine) Init(env *ghost.Env, first, end simkern.CoreID, quantum time.Duration) {
	e.env = env
	e.quantum = quantum
	e.cores = make([]simkern.CoreID, 0, env.Cores())
	for c := first; c < end; c++ {
		e.cores = append(e.cores, c)
	}
}

// Cores returns the cores currently in the group (not a copy; callers must
// not mutate).
func (e *Engine) Cores() []simkern.CoreID { return e.cores }

// QueueLen returns the global queue length.
func (e *Engine) QueueLen() int { return e.q.Len() }

// AddCore adds c to the group and immediately tries to dispatch onto it.
func (e *Engine) AddCore(c simkern.CoreID) {
	e.cores = append(e.cores, c)
	e.Dispatch()
}

// RemoveCore removes c from the group. The task still running on c, if
// any, is left in place: per the paper, a core migrating out of the FIFO
// group only loses its task when the new policy schedules over it. The
// caller (the hybrid rightsizer) decides what to do with it.
func (e *Engine) RemoveCore(c simkern.CoreID) {
	for i, id := range e.cores {
		if id == c {
			e.cores = append(e.cores[:i], e.cores[i+1:]...)
			return
		}
	}
}

// Enqueue appends t to the global queue and dispatches.
func (e *Engine) Enqueue(t *simkern.Task) {
	e.q.PushBack(t)
	e.Dispatch()
}

// EnqueueFront puts t at the head of the global queue and dispatches. The
// hybrid rightsizer uses it to preserve the queue position of a runner
// displaced by a core migration.
func (e *Engine) EnqueueFront(t *simkern.Task) {
	e.q.PushFront(t)
	e.Dispatch()
}

// TaskDead releases the core t ran on by dispatching queued work.
func (e *Engine) TaskDead() {
	e.Dispatch()
}

// Dispatch fills idle cores from the head of the global queue.
func (e *Engine) Dispatch() {
	for _, c := range e.cores {
		if e.q.Len() == 0 {
			return
		}
		if e.env.RunningTask(c) != nil {
			continue
		}
		t, _ := e.q.Front()
		if err := e.env.CommitRun(c, t); err != nil {
			// Failed transaction (e.g. an in-flight completion message):
			// leave the task queued and try the next core.
			continue
		}
		e.q.PopFront()
	}
}

// Evict removes t from the engine — dequeued if queued (preserving the
// order of the rest), preempted if running on a group core — and reports
// whether the engine owned it. A false return means t is not here,
// typically because its completion message is in flight; the caller must
// then leave it alone. Implements the engine half of ghost.TaskEvictor.
func (e *Engine) Evict(t *simkern.Task) bool {
	n := e.q.Len()
	found := false
	for i := 0; i < n; i++ {
		x, _ := e.q.PopFront()
		if x == t {
			found = true
			continue
		}
		e.q.PushBack(x)
	}
	if found {
		return true
	}
	for _, c := range e.cores {
		if e.env.RunningTask(c) != t {
			continue
		}
		if _, err := e.env.CommitPreempt(c); err != nil {
			return false // completion in flight
		}
		e.Dispatch()
		return true
	}
	return false
}

// Tick enforces the quantum: any task whose current run segment exceeds it
// is preempted and moved to the end of the global queue.
func (e *Engine) Tick() {
	if e.quantum <= 0 {
		return
	}
	now := e.env.Now()
	for _, c := range e.cores {
		t := e.env.RunningTask(c)
		if t == nil {
			continue
		}
		if now-t.SegmentStart() < e.quantum {
			continue
		}
		got, err := e.env.CommitPreempt(c)
		if err != nil {
			continue
		}
		e.q.PushBack(got)
	}
	e.Dispatch()
}

// NextDecision reports the earliest instant at which Tick could change
// scheduling state — the tick-elision horizon (ghost.HorizonTicker,
// DESIGN.md §9). Quantum enforcement is pure wall time: a runner's
// segment expires exactly at SegmentStart + quantum, independent of host
// interference, and SegmentStart only moves inside committed transactions,
// which all re-evaluate the horizon. Every runner contributes its expiry
// (a sole runner past its quantum is still preempted and re-dispatched,
// which records a real preemption); an idle core next to queued work
// wants the very next boundary (Tick ends in Dispatch, covering a queued
// task stranded by a failed commit). Run-to-completion FIFO (quantum
// <= 0) never decides anything on a tick. A runner whose completion
// message is in flight contributes a horizon whose tick then fails its
// preempt harmlessly, exactly like the naive pump's boundary tick.
func (e *Engine) NextDecision(now time.Duration) (time.Duration, bool) {
	if e.quantum <= 0 {
		return 0, false
	}
	var best time.Duration
	found := false
	idle := false
	for _, c := range e.cores {
		t := e.env.RunningTask(c)
		if t == nil {
			idle = true
			continue
		}
		h := t.SegmentStart() + e.quantum
		if h < now {
			h = now
		}
		if !found || h < best {
			best, found = h, true
		}
	}
	if idle && e.q.Len() > 0 {
		return now, true
	}
	return best, found
}

// Policy is the standalone ghost.Policy: a FIFO engine spanning every core
// in the enclave.
type Policy struct {
	cfg    Config
	engine Engine
}

var (
	_ ghost.Policy        = (*Policy)(nil)
	_ ghost.Ticker        = (*Policy)(nil)
	_ ghost.HorizonTicker = (*Policy)(nil)
	_ ghost.TaskEvictor   = (*Policy)(nil)
)

// New returns a standalone FIFO policy.
func New(cfg Config) *Policy {
	if cfg.Quantum > 0 && cfg.Tick == 0 {
		cfg.Tick = DefaultTick
	}
	return &Policy{cfg: cfg}
}

// Name implements ghost.Policy.
func (p *Policy) Name() string {
	if p.cfg.Quantum > 0 {
		return "fifo+" + p.cfg.Quantum.String()
	}
	return "fifo"
}

// Attach implements ghost.Policy.
func (p *Policy) Attach(env *ghost.Env) {
	p.engine.Init(env, 0, simkern.CoreID(env.Cores()), p.cfg.Quantum)
}

// OnMessage implements ghost.Policy.
func (p *Policy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.engine.Enqueue(m.Task)
	case ghost.MsgTaskDead:
		p.engine.TaskDead()
	}
}

// TickEvery implements ghost.Ticker; non-positive disables ticking for
// pure FIFO.
func (p *Policy) TickEvery() time.Duration {
	if p.cfg.Quantum <= 0 {
		return 0
	}
	return p.cfg.Tick
}

// OnTick implements ghost.Ticker.
func (p *Policy) OnTick() { p.engine.Tick() }

// NextDecision implements ghost.HorizonTicker: the engine's analytic
// quantum-expiry horizon. Pure FIFO reports no decisions (it has no tick
// at all — TickEvery is zero).
func (p *Policy) NextDecision(now time.Duration) (time.Duration, bool) {
	return p.engine.NextDecision(now)
}

// EvictTask implements ghost.TaskEvictor.
func (p *Policy) EvictTask(t *simkern.Task) bool { return p.engine.Evict(t) }
