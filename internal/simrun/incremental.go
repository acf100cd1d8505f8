// Incremental runs: the fleet engine (cluster.Fleet, behind
// cluster.Simulate, cluster.SimulateShardedWindowed and autoscale.Run)
// replaces the per-server feeder timers with external admission control —
// a router goroutine owns the arrival stream and tells every machine how
// far it may advance (a watermark T is only emitted once every arrival ≤
// T has been handed over). Incremental
// packages the same kernel + retirer-wrapped enclave wiring as ExecStream
// for that protocol: the caller admits tasks, then steps the clock to
// each watermark with RunTo, and finally Drain()s. Determinism follows
// from AdmitTask's pre-seeding equivalence and from open admission
// exactly as on the feeder path: the machine's admission stays open from
// construction until Drain (DESIGN.md §7, §11).

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
}

// NewIncremental builds a task-discarding kernel with policy attached
// through a delegation enclave wrapped with the sink retirer (completed
// tasks are measured into sink and recycled into the machine's pool).
// The ExecStream precondition carries over: the policy must not use
// Env.AbortTask.
func NewIncremental(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, sink metrics.Sink) (*Incremental, error) {
	if sink == nil {
		return nil, fmt.Errorf("simrun: NewIncremental needs a Sink")
	}
	kcfg.DiscardTasks = true
	k, err := simkern.New(kcfg)
	if err != nil {
		return nil, err
	}
	pool := workload.NewTaskPool()
	wrapped := wrapRetirer(policy, sink, func(t *simkern.Task) { pool.Put(t) })
	enc, err := ghost.NewEnclave(k, wrapped, gcfg)
	if err != nil {
		return nil, err
	}
	k.SetAdmissionOpen(true)
	return &Incremental{k: k, enc: enc, pool: pool, name: policy.Name()}, nil
}

// Pool returns the machine's task pool; draw admitted tasks from it so
// retirement recycles them.
func (inc *Incremental) Pool() *workload.TaskPool { return inc.pool }

// Admit hands one task to the machine. Arrivals must be non-decreasing
// and at or after the last RunTo watermark.
func (inc *Incremental) Admit(t *simkern.Task) error { return inc.k.AdmitTask(t) }

// RunTo advances the machine's clock to the watermark: every event at or
// before it fires, and the clock lands exactly on it. The caller must
// have admitted every arrival ≤ watermark first — that is what makes the
// chunked run observationally identical to a fully pre-seeded one.
func (inc *Incremental) RunTo(watermark time.Duration) error {
	_, err := inc.k.Run(watermark)
	return err
}

// Drain closes admission, runs the machine to quiescence and verifies
// nothing is left outstanding. No task may be admitted after it.
func (inc *Incremental) Drain() error {
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
