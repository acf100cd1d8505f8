// Streaming run protocol: instead of seeding every task before the clock
// starts and holding every finished task for an end-of-run Collect, a
// feeder keeps only a bounded look-ahead window of future arrivals in the
// event heap and a retirer pushes each finished task's record into a
// metrics.Sink, optionally recycling the struct. Peak memory becomes
// O(active tasks + look-ahead window) instead of O(total invocations).
//
// Determinism: the feeder admits through Kernel.AdmitTask, whose arrivals
// order before any same-instant run-time event (simkern's admit class) —
// exactly the tie-break a fully pre-seeded run produces — and every chunk
// is admitted strictly before simulated time reaches its arrivals. The
// feeder also keeps the kernel's admission open until its source is
// exhausted, so the kernel counts the not-yet-admitted remainder as
// outstanding just as a pre-seeded kernel counts its future arrivals
// (DESIGN.md §7). A streamed run is therefore observationally identical
// to the materialized run of the same workload, idle gaps included;
// TestGoldenDigests and TestLazyAdmissionMatchesPreSeeding prove it per
// scheduler.

package simrun

import (
	"errors"
	"fmt"
	"iter"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// TaskSource yields the next task to admit, in non-decreasing arrival
// order, or ok=false when the workload is exhausted.
type TaskSource func() (t *simkern.Task, ok bool)

// DefaultWindow is the feeder's look-ahead half-window: at any instant the
// event heap holds arrivals at most two windows ahead of the clock.
// Arrivals are minute-structured (evenly spaced within each trace minute),
// so half a minute keeps the heap a small constant factor of the
// per-minute arrival volume without feeder timers dominating the run.
const DefaultWindow = 30 * time.Second

// StreamConfig tunes ExecStream.
type StreamConfig struct {
	// Window is the look-ahead half-window; zero means DefaultWindow.
	Window time.Duration
	// Sink receives one record per retired function task, in completion
	// order. Required.
	Sink metrics.Sink
	// Recycle, when non-nil, is handed each retired task after its record
	// is sinked — the hook that returns structs to a workload.TaskPool.
	// Leave nil to let finished tasks be garbage collected.
	Recycle func(*simkern.Task)
	// Stats, when non-nil, receives a snapshot of the enclave's delegation
	// stats after the run drains — the fired vs elided agent-tick counters
	// the long-horizon experiments report.
	Stats *ghost.Stats
}

// ExecStream is Exec's streaming sibling: build a kernel (task retention
// disabled), attach policy through a delegation enclave wrapped with the
// retirer, admit tasks from src in look-ahead windows, and run until both
// the source and the machine drain. The returned kernel carries only
// scalar observables (makespan, per-core counters); per-task results live
// in cfg.Sink.
//
// Precondition: the policy must not use Env.AbortTask — unless it retires
// every aborted task's Failed record into the sink itself. Aborted tasks
// emit no TASK_DEAD, so the retirer would never sink their record — the
// materialized path's Collect does report them, and the two dataflows
// would silently diverge. The Firecracker fleet (the one aborting caller)
// discharges the obligation in streaming mode by pushing the refused
// launch's Failed record directly (firecracker.Fleet.Stream).
func ExecStream(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, src TaskSource, cfg StreamConfig) (*simkern.Kernel, error) {
	if cfg.Sink == nil {
		return nil, errors.New("simrun: ExecStream needs a Sink")
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("simrun: negative look-ahead window %v", cfg.Window)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	kcfg.DiscardTasks = true
	k, err := simkern.New(kcfg)
	if err != nil {
		return nil, err
	}
	wrapped := wrapRetirer(policy, cfg.Sink, cfg.Recycle)
	enc, err := ghost.NewEnclave(k, wrapped, gcfg)
	if err != nil {
		return nil, err
	}
	f := &feeder{k: k, next: src, window: cfg.Window}
	f.fire = f.onTimer
	k.SetAdmissionOpen(true)
	if err := f.seed(); err != nil {
		return nil, err
	}
	if _, err := k.Run(0); err != nil {
		return nil, err
	}
	if f.err != nil {
		return nil, f.err
	}
	if n := k.Outstanding(); n != 0 {
		return nil, fmt.Errorf("simrun: %d tasks unfinished under %s", n, policy.Name())
	}
	if cfg.Stats != nil {
		*cfg.Stats = enc.Stats()
	}
	return k, nil
}

// feeder admits tasks in chunks: at simulated time T it has admitted every
// arrival in [0, T+2W) and armed the next chunk timer at T+W. Admission
// timers therefore always fire strictly before the arrivals they admit,
// which is what AdmitTask's pre-seeding equivalence requires.
type feeder struct {
	k      *simkern.Kernel
	next   TaskSource
	window time.Duration
	fire   func() // persistent chunk-timer callback

	pending  *simkern.Task // pulled from src but beyond the horizon
	lastArr  time.Duration
	nextFire time.Duration
	done     bool
	err      error
}

// seed admits the initial two windows and arms the chain.
func (f *feeder) seed() error {
	f.admitUpTo(2 * f.window)
	if !f.done {
		f.nextFire = f.window
		f.k.ScheduleFn(f.nextFire, f.fire)
	}
	return f.err
}

// onTimer advances the look-ahead by one window and re-arms.
func (f *feeder) onTimer() {
	at := f.nextFire
	f.admitUpTo(at + 2*f.window)
	if !f.done {
		f.nextFire = at + f.window
		f.k.ScheduleFn(f.nextFire, f.fire)
	}
}

// admitUpTo admits every source task arriving before horizon. On a source
// ordering violation or kernel rejection it records the error and stops
// feeding (the run then fails after drain).
func (f *feeder) admitUpTo(horizon time.Duration) {
	for {
		t := f.pending
		if t == nil {
			var ok bool
			t, ok = f.next()
			if !ok {
				f.close()
				return
			}
			if t == nil {
				f.fail(errors.New("simrun: TaskSource yielded a nil task"))
				return
			}
			if t.Arrival < f.lastArr {
				f.fail(fmt.Errorf("simrun: TaskSource out of order: %v after %v", t.Arrival, f.lastArr))
				return
			}
			f.lastArr = t.Arrival
		}
		if t.Arrival >= horizon {
			f.pending = t
			return
		}
		f.pending = nil
		if err := f.k.AdmitTask(t); err != nil {
			f.fail(err)
			return
		}
	}
}

func (f *feeder) fail(err error) {
	f.err = err
	f.close()
}

// close stops feeding and closes the kernel's admission.
func (f *feeder) close() {
	f.done = true
	f.k.SetAdmissionOpen(false)
}

// retirer wraps the scheduling policy: after the policy has consumed a
// TASK_DEAD message (and with it dropped its own references), the finished
// task is measured into the sink and optionally recycled. Only
// function-like work is recorded, matching metrics.Collect.
type retirer struct {
	inner   ghost.Policy
	sink    metrics.Sink
	recycle func(*simkern.Task)
}

// Name implements ghost.Policy.
func (r *retirer) Name() string { return r.inner.Name() }

// Attach implements ghost.Policy.
func (r *retirer) Attach(env *ghost.Env) { r.inner.Attach(env) }

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
	if r.recycle != nil {
		r.recycle(t)
	}
}

// tickingRetirer additionally forwards ghost.Ticker for policies that
// need agent ticks (the enclave type-asserts the wrapper, not the inner
// policy).
type tickingRetirer struct {
	retirer
	ticker ghost.Ticker
}

// TickEvery implements ghost.Ticker.
func (r *tickingRetirer) TickEvery() time.Duration { return r.ticker.TickEvery() }

// OnTick implements ghost.Ticker.
func (r *tickingRetirer) OnTick() { r.ticker.OnTick() }

// horizonRetirer additionally forwards ghost.HorizonTicker, so a wrapped
// CFS/hybrid policy keeps its tick-elision pump on the streaming path.
type horizonRetirer struct {
	tickingRetirer
	horizon ghost.HorizonTicker
}

// NextDecision implements ghost.HorizonTicker.
func (r *horizonRetirer) NextDecision(now time.Duration) (time.Duration, bool) {
	return r.horizon.NextDecision(now)
}

func wrapRetirer(policy ghost.Policy, sink metrics.Sink, recycle func(*simkern.Task)) ghost.Policy {
	base := retirer{inner: policy, sink: sink, recycle: recycle}
	if ht, ok := policy.(ghost.HorizonTicker); ok {
		return &horizonRetirer{tickingRetirer: tickingRetirer{retirer: base, ticker: ht}, horizon: ht}
	}
	if tk, ok := policy.(ghost.Ticker); ok {
		return &tickingRetirer{retirer: base, ticker: tk}
	}
	return &base
}

// PooledTasks adapts an invocation Source to a TaskSource that draws
// structs from pool and assigns sequential IDs 1..n in arrival order —
// the streaming analog of workload.Tasks. The returned stop releases the
// underlying pull iterator; call it once the run is over.
func PooledTasks(src workload.Source, pool *workload.TaskPool) (TaskSource, func()) {
	next, stop := iter.Pull(iter.Seq[workload.Invocation](src))
	var id simkern.TaskID
	return func() (*simkern.Task, bool) {
		inv, ok := next()
		if !ok {
			return nil, false
		}
		id++
		return pool.Get(inv, id), true
	}, stop
}

// ExecStreamPooled is the standard pooled wiring over ExecStream: tasks
// are drawn from a fresh pool with IDs 1..n in arrival order and recycled
// back into it on retirement. cfg.Recycle must be nil — the pool owns
// recycling here; drive ExecStream directly to instrument or replace the
// pool.
func ExecStreamPooled(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, src workload.Source, cfg StreamConfig) (*simkern.Kernel, error) {
	if cfg.Recycle != nil {
		return nil, errors.New("simrun: ExecStreamPooled owns Recycle; use ExecStream for custom pooling")
	}
	pool := workload.NewTaskPool()
	tasks, stop := PooledTasks(src, pool)
	defer stop()
	cfg.Recycle = func(t *simkern.Task) { pool.Put(t) }
	return ExecStream(kcfg, policy, gcfg, tasks, cfg)
}
