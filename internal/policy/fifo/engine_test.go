package fifo_test

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/policytest"
	"github.com/faassched/faassched/internal/simkern"
)

// enginePolicy drives a bare fifo.Engine as a ghost.Policy for tests.
type enginePolicy struct {
	build  func(*ghost.Env) *fifo.Engine
	engine *fifo.Engine
}

func (p *enginePolicy) Name() string { return "fifo-engine-probe" }
func (p *enginePolicy) Attach(env *ghost.Env) {
	p.engine = p.build(env)
}
func (p *enginePolicy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.engine.Enqueue(m.Task)
	case ghost.MsgTaskDead:
		p.engine.TaskDead()
	}
}

func TestEngineAddRemoveCore(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	var eng *fifo.Engine
	probe := &enginePolicy{build: func(env *ghost.Env) *fifo.Engine {
		// Start with only core 0; cores 1 and 2 join later.
		eng = new(fifo.Engine)
		eng.Init(env, 0, 1, 0)
		return eng
	}}
	if _, err := ghost.NewEnclave(k, probe, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := k.AddTask(&simkern.Task{ID: simkern.TaskID(i + 1), Work: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	// Grow the group mid-run; AddCore must dispatch queued work at once.
	k.SetTimer(10*time.Millisecond, func() {
		eng.AddCore(1)
		eng.AddCore(2)
		if len(eng.Cores()) != 3 {
			t.Errorf("cores = %v", eng.Cores())
		}
		if k.RunningTask(1) == nil || k.RunningTask(2) == nil {
			t.Error("AddCore did not dispatch queued work")
		}
	})
	// Shrink it again; the runner on core 2 must keep running (the paper
	// leaves migrated-away FIFO runners in place).
	k.SetTimer(20*time.Millisecond, func() {
		eng.RemoveCore(2)
		eng.RemoveCore(99) // unknown core: no-op
		if len(eng.Cores()) != 2 {
			t.Errorf("cores after remove = %v", eng.Cores())
		}
		if k.RunningTask(2) == nil {
			t.Error("RemoveCore disturbed the running task")
		}
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	policytest.AssertAllFinished(t, k)
}

func TestEngineEnqueueFrontOrdering(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	var eng *fifo.Engine
	probe := &enginePolicy{build: func(env *ghost.Env) *fifo.Engine {
		eng = new(fifo.Engine)
		eng.Init(env, 0, 1, 0)
		return eng
	}}
	if _, err := ghost.NewEnclave(k, probe, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	a := &simkern.Task{ID: 1, Work: 30 * time.Millisecond}
	b := &simkern.Task{ID: 2, Work: 30 * time.Millisecond, Arrival: time.Millisecond}
	c := &simkern.Task{ID: 3, Work: 30 * time.Millisecond, Arrival: 2 * time.Millisecond}
	for _, task := range []*simkern.Task{a, b, c} {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	// At 5ms: a runs, queue = [b, c]. Preempt a and put it back at the
	// front — it must resume before b and c.
	k.SetTimer(5*time.Millisecond, func() {
		got, err := k.Preempt(0)
		if err != nil {
			t.Fatal(err)
		}
		eng.EnqueueFront(got)
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !(a.Finish() < b.Finish() && b.Finish() < c.Finish()) {
		t.Errorf("completion order wrong: a=%v b=%v c=%v", a.Finish(), b.Finish(), c.Finish())
	}
	if eng.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", eng.QueueLen())
	}
}

func TestEngineTickWithoutQuantumIsNoop(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	var eng *fifo.Engine
	probe := &enginePolicy{build: func(env *ghost.Env) *fifo.Engine {
		eng = new(fifo.Engine)
		eng.Init(env, 0, 1, 0)
		return eng
	}}
	if _, err := ghost.NewEnclave(k, probe, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	task := &simkern.Task{ID: 1, Work: 20 * time.Millisecond}
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	k.SetTimer(5*time.Millisecond, func() { eng.Tick() })
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if task.Preemptions() != 0 {
		t.Errorf("quantum-less Tick preempted %d times", task.Preemptions())
	}
}
