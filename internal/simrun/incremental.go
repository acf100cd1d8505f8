// Incremental runs: one machine under external admission control. The
// fleet engine (cluster.Fleet, which the fleet driver cluster.Driver runs
// behind cluster.Simulate, cluster.SimulateShardedWindowed and the
// elastic autoscale.Run and RunWindowed) runs every machine this way, a
// single machine being a one-server fleet: a router goroutine
// owns the arrival stream and tells every machine how far it may advance
// (a watermark T is only emitted once every arrival ≤ T has been handed
// over). The caller admits tasks, then steps the clock to each watermark
// with RunTo, and finally Drain()s. The fleet's shards admit each arrival
// only when the machine's clock reaches it: they run the machine to the
// instant before (RunTo, Now) and admit every arrival of that instant, so
// a machine holds only due tasks, never a watermark step of future ones.
// Finished tasks are measured into a metrics.Sink and recycled as they
// retire, into a task pool the machine may share: a fleet shard hands
// every machine it builds its one pool, so a task retired on one server
// carries the next arrival of any server of that shard. Determinism
// follows from AdmitTask's pre-seeding equivalence and from open
// admission: the machine's admission stays open from construction until
// Drain, so the kernel counts a not-yet-admitted task as outstanding
// just as a pre-seeded kernel counts its future arrivals
// (DESIGN.md §7, §11). TestLazyAdmissionMatchesPreSeeding and the sampler
// golden prove it per scheduler, and cluster's FuzzLazyAdmission for the
// shards' admission at the instant.

package simrun

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// Incremental is one machine under external admission control. It is not
// safe for concurrent use; a sharded fleet gives each shard worker
// exclusive ownership of its machines.
type Incremental struct {
	k    *simkern.Kernel
	enc  *ghost.Enclave
	pool *workload.TaskPool
	name string
	// drained marks a closed admission: Drain has run, and no task the
	// machine is handed could ever be reported.
	drained bool
}

// NewIncremental builds a task-discarding kernel with policy attached
// through a delegation enclave wrapped with the sink retirer (completed
// tasks are measured into sink and recycled into the task pool).
// pool, when given and non-nil, is that pool: the machines of one fleet
// shard share their shard's, which only the shard's goroutine touches.
// Without it the machine gets a private pool.
//
// Precondition: the policy must not use Env.AbortTask. An aborted task
// emits no TASK_DEAD, so the retirer would never sink its record, while
// the pre-seeded path's metrics.Collect does report it.
func NewIncremental(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, sink metrics.Sink, pool ...*workload.TaskPool) (*Incremental, error) {
	if sink == nil {
		return nil, fmt.Errorf("simrun: NewIncremental needs a Sink")
	}
	if len(pool) > 1 {
		return nil, fmt.Errorf("simrun: NewIncremental takes one task pool, got %d", len(pool))
	}
	var tasks *workload.TaskPool
	if len(pool) == 1 {
		tasks = pool[0]
	}
	if tasks == nil {
		tasks = workload.NewTaskPool()
	}
	kcfg.DiscardTasks = true
	k, err := simkern.New(kcfg)
	if err != nil {
		return nil, err
	}
	enc, err := ghost.NewEnclave(k, &retirer{inner: policy, sink: sink, pool: tasks}, gcfg)
	if err != nil {
		return nil, err
	}
	k.SetAdmissionOpen(true)
	return &Incremental{k: k, enc: enc, pool: tasks, name: policy.Name()}, nil
}

// Pool returns the task pool the machine recycles into; draw admitted
// tasks from it so retirement recycles them.
func (inc *Incremental) Pool() *workload.TaskPool { return inc.pool }

// Admit hands one task to the machine. Arrivals must be non-decreasing
// and at or after the last RunTo watermark, and admission closes at
// Drain: a task admitted after it is an error.
func (inc *Incremental) Admit(t *simkern.Task) error {
	if inc.drained {
		return fmt.Errorf("simrun: admission to %s is closed: task %d arrived after Drain", inc.name, t.ID)
	}
	return inc.k.AdmitTask(t)
}

// RunTo advances the machine's clock to the watermark: every event at or
// before it fires, and the clock lands exactly on it. The caller must
// have admitted every arrival ≤ watermark first — that is what makes the
// chunked run observationally identical to a fully pre-seeded one.
// Watermarks never go back: one behind the machine's clock is an error.
func (inc *Incremental) RunTo(watermark time.Duration) error {
	if now := inc.k.Now(); watermark < now {
		return fmt.Errorf("simrun: watermark %v is behind %s's clock at %v", watermark, inc.name, now)
	}
	_, err := inc.k.Run(watermark)
	return err
}

// Now returns the machine's clock. An arrival before it can no longer be
// admitted, and a watermark before it is rejected.
func (inc *Incremental) Now() time.Duration { return inc.k.Now() }

// Drain closes admission, runs the machine to quiescence and verifies
// nothing is left outstanding. No task may be admitted after it.
func (inc *Incremental) Drain() error {
	inc.drained = true
	inc.k.SetAdmissionOpen(false)
	if _, err := inc.k.Run(0); err != nil {
		return err
	}
	if n := inc.k.Outstanding(); n != 0 {
		return fmt.Errorf("simrun: %d tasks unfinished under %s", n, inc.name)
	}
	return nil
}

// Makespan reports the machine's last completion time.
func (inc *Incremental) Makespan() time.Duration { return inc.k.Makespan() }

// Stats snapshots the enclave's delegation counters.
func (inc *Incremental) Stats() ghost.Stats { return inc.enc.Stats() }

// Events returns how many kernel events the machine has scheduled — the
// run-telemetry measure of simulation work done.
func (inc *Incremental) Events() uint64 { return inc.k.EventSeq() }

// DefaultWindow is the fleet engine's default watermark step. A machine
// holds only its due arrivals whatever the step, so the step sets only
// how often the router and the shards synchronize and how many routed
// arrivals wait in a server's pending queue; half a minute keeps that
// queue a fraction of the per-minute arrival volume without watermark
// steps dominating the run.
const DefaultWindow = 30 * time.Second

// retirer wraps the scheduling policy: after the policy has consumed a
// TASK_DEAD message (and with it dropped its own references), the finished
// task is measured into the sink and recycled into pool. Only
// function-like work is recorded, matching metrics.Collect. The enclave
// ticks the inner policy through Unwrap (ghost.Wrapper).
type retirer struct {
	inner ghost.Policy
	sink  metrics.Sink
	pool  *workload.TaskPool
}

// Name implements ghost.Policy.
func (r *retirer) Name() string { return r.inner.Name() }

// Attach implements ghost.Policy.
func (r *retirer) Attach(env *ghost.Env) { r.inner.Attach(env) }

// Unwrap implements ghost.Wrapper.
func (r *retirer) Unwrap() ghost.Policy { return r.inner }

// OnMessage implements ghost.Policy.
func (r *retirer) OnMessage(m ghost.Message) {
	r.inner.OnMessage(m)
	if m.Type != ghost.MsgTaskDead {
		return
	}
	t := m.Task
	if t.Kind == simkern.KindFunction || t.Kind == simkern.KindVCPU {
		r.sink.Push(metrics.FromTask(t))
	}
	r.pool.Put(t)
}
