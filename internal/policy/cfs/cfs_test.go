package cfs_test

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/policytest"
	"github.com/faassched/faassched/internal/simkern"
)

func TestAllTasksComplete(t *testing.T) {
	p := cfs.New(cfs.Params{})
	w := policytest.Mixed(80, time.Millisecond, 10*time.Millisecond, 300*time.Millisecond)
	policytest.Run(t, 4, p, w)
}

func TestTimeSharingStretchesExecution(t *testing.T) {
	// Two equal 200ms tasks on one core arriving together: CFS interleaves
	// them, so each one's execution time approaches 2× its demand, and they
	// finish close together (fairness). Under FIFO the first would finish
	// at ~200ms with execution ~200ms.
	w := policytest.Uniform(2, 0, 200*time.Millisecond)
	k := policytest.Run(t, 1, cfs.New(cfs.Params{}), w)
	for _, task := range k.Tasks() {
		exec := task.Finish() - task.FirstRun()
		if exec < 300*time.Millisecond {
			t.Errorf("task %d exec %v, want ~2x demand (time sharing)", task.ID, exec)
		}
	}
	a, b := k.Tasks()[0], k.Tasks()[1]
	gap := a.Finish() - b.Finish()
	if gap < 0 {
		gap = -gap
	}
	if gap > 50*time.Millisecond {
		t.Errorf("completion gap %v, want small (fairness)", gap)
	}
	if policytest.TotalPreemptions(k) == 0 {
		t.Error("CFS performed no preemptions while time-sharing")
	}
}

func TestWakeupPreemptionGivesFastResponse(t *testing.T) {
	// Paper Fig 4: CFS achieves near-immediate response. A task arriving
	// while the core is saturated by an old task must start quickly.
	w := policytest.Workload{}
	w.Tasks = append(w.Tasks, &simkern.Task{ID: 1, Work: time.Second, MemMB: 128})
	w.Tasks = append(w.Tasks, &simkern.Task{
		ID: 2, Arrival: 500 * time.Millisecond, Work: 10 * time.Millisecond, MemMB: 128,
	})
	k := policytest.Run(t, 1, cfs.New(cfs.Params{}), w)
	late := k.Tasks()[1]
	resp := late.FirstRun() - late.Arrival
	if resp > 10*time.Millisecond {
		t.Errorf("response %v, want fast wakeup preemption", resp)
	}
}

func TestIdleBalancePullsWork(t *testing.T) {
	// Everything arrives at once and lands per wakeup placement; after the
	// short tasks drain, the idle cores must steal the remaining long ones.
	w := policytest.Workload{}
	for i := 0; i < 8; i++ {
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID: simkern.TaskID(i + 1), Work: 400 * time.Millisecond, MemMB: 128,
		})
	}
	k := policytest.Run(t, 4, cfs.New(cfs.Params{}), w)
	// With perfect balance 8×400ms on 4 cores finishes by ~850ms; without
	// stealing a pathological placement could exceed 1.2s.
	if k.Makespan() > 1200*time.Millisecond {
		t.Errorf("makespan %v, want < 1.2s with load balancing", k.Makespan())
	}
	// All four cores must have done meaningful work.
	for c := 0; c < 4; c++ {
		if busy := k.CoreBusy(simkern.CoreID(c)); busy < 300*time.Millisecond {
			t.Errorf("core %d busy only %v — balance failed", c, busy)
		}
	}
}

func TestCFSExecutionWorseFIFOResponseBetter(t *testing.T) {
	// Paper Observation 2, the central trade-off: FIFO beats CFS on
	// execution time; CFS beats FIFO on response time. Saturating load.
	w := func() policytest.Workload {
		return policytest.Mixed(120, time.Millisecond, 20*time.Millisecond, 250*time.Millisecond)
	}
	kFIFO := policytest.Run(t, 2, fifo.New(fifo.Config{}), w())
	kCFS := policytest.Run(t, 2, cfs.New(cfs.Params{}), w())

	if e1, e2 := policytest.MeanExecution(kFIFO), policytest.MeanExecution(kCFS); e1 >= e2 {
		t.Errorf("FIFO exec %v should beat CFS exec %v", e1, e2)
	}
	if r1, r2 := policytest.MeanResponse(kFIFO), policytest.MeanResponse(kCFS); r1 <= r2 {
		t.Errorf("CFS response %v should beat FIFO response %v", r2, r1)
	}
}

// TestVruntimeMonotone samples every live task's vruntime each
// millisecond: on one core (no migration re-basing) a task's vruntime
// never goes negative or backwards, and time sharing must advance it.
// Samples are taken while tasks are live because the engine releases a
// task's CFS record at TASK_DEAD, after which Vruntime reads 0.
func TestVruntimeMonotone(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.NewEnclave(k, cfs.New(cfs.Params{}), ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	w := policytest.Uniform(10, 0, 100*time.Millisecond)
	for _, task := range w.Tasks {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	last := make(map[simkern.TaskID]time.Duration)
	var sample func()
	sample = func() {
		for _, task := range w.Tasks {
			if s := task.State(); s != simkern.StateRunnable && s != simkern.StateRunning {
				continue
			}
			v := cfs.Vruntime(task)
			if v < 0 {
				t.Errorf("task %d vruntime %v < 0", task.ID, v)
			}
			if v < last[task.ID] {
				t.Errorf("task %d vruntime went back from %v to %v", task.ID, last[task.ID], v)
			}
			last[task.ID] = v
		}
		if k.Outstanding() > 0 {
			k.SetTimer(k.Now()+time.Millisecond, sample)
		}
	}
	k.SetTimer(time.Millisecond, sample)
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	policytest.AssertAllFinished(t, k)
	for _, task := range w.Tasks {
		if last[task.ID] <= 0 {
			t.Errorf("task %d: no positive vruntime sampled while live", task.ID)
		}
		if v := cfs.Vruntime(task); v != 0 {
			t.Errorf("task %d: vruntime %v after TASK_DEAD, want 0 (record released)", task.ID, v)
		}
	}
}

// TestEngineCycleAllocationFree: once warmed, an enqueue → tick-preempt
// → TASK_DEAD cycle over pooled tasks allocates nothing — runqueue nodes
// are embedded in the per-task records, and the records are recycled
// through the engine's free list.
func TestEngineCycleAllocationFree(t *testing.T) {
	work := make([]time.Duration, 6)
	for i := range work {
		work[i] = 20 * time.Millisecond
	}
	r := policytest.NewRerun(t, 2, cfs.New(cfs.Params{}), work)
	for i := 0; i < 3; i++ {
		if r.Cycle() == 0 {
			t.Fatal("cycle saw no preemptions; the tick-preempt path is untested")
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { r.Cycle() }); allocs != 0 {
		t.Errorf("warmed CFS cycle allocates %.1f/run, want 0", allocs)
	}
}

func TestEngineRemoveCoreDrains(t *testing.T) {
	// Build an engine directly and verify RemoveCore returns queued work.
	k, err := simkern.New(simkern.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var eng *cfs.Engine
	probe := &enginePolicy{build: func(env *ghost.Env) *cfs.Engine {
		eng = new(cfs.Engine)
		eng.Init(env, 0, 2, cfs.Params{})
		return eng
	}}
	if _, err := ghost.NewEnclave(k, probe, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := k.AddTask(&simkern.Task{ID: simkern.TaskID(i + 1), Work: 100 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	var drained []*simkern.Task
	k.SetTimer(20*time.Millisecond, func() {
		drained = eng.RemoveCore(1)
		if len(eng.Cores()) != 1 {
			t.Errorf("cores after remove: %v", eng.Cores())
		}
		for _, task := range drained {
			eng.Enqueue(task) // redistribute to the remaining core
		}
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(drained) == 0 {
		t.Fatal("RemoveCore drained nothing despite queued work")
	}
	policytest.AssertAllFinished(t, k)
}

// enginePolicy adapts a bare cfs.Engine into a ghost.Policy for tests.
type enginePolicy struct {
	build  func(*ghost.Env) *cfs.Engine
	engine *cfs.Engine
}

func (p *enginePolicy) Name() string { return "cfs-engine-probe" }
func (p *enginePolicy) Attach(env *ghost.Env) {
	p.engine = p.build(env)
}
func (p *enginePolicy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.engine.Enqueue(m.Task)
	case ghost.MsgTaskDead:
		p.engine.TaskDead(m.Task, m.Core)
	}
}
func (p *enginePolicy) TickEvery() time.Duration { return time.Millisecond }
func (p *enginePolicy) OnTick()                  { p.engine.Tick() }

func TestSliceFloorsAtMinGranularity(t *testing.T) {
	// Many runnable tasks on one core: the slice floors at MinGranularity,
	// so segment lengths should cluster near it rather than collapse to 0.
	params := cfs.Params{SchedLatency: 20 * time.Millisecond, MinGranularity: 4 * time.Millisecond}
	w := policytest.Uniform(10, 0, 40*time.Millisecond)
	k := policytest.Run(t, 1, cfs.New(params), w)
	// 10 tasks → latency/nr = 2ms < min gran 4ms → slices are 4ms. Each
	// 40ms task then gets preempted ≈ 40/4 − 1 ≈ 9 times at most.
	for _, task := range k.Tasks() {
		if task.Preemptions() > 12 {
			t.Errorf("task %d preempted %d times; slices below min granularity?",
				task.ID, task.Preemptions())
		}
	}
}
