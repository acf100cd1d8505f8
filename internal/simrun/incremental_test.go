package simrun

import (
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

func testInvocations(t *testing.T, n int) []workload.Invocation {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Minutes = 3
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := workload.Builder{}.Build(tr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Sample(invs, n)
}

// stepIncremental admits invs into inc with IDs 1..n in arrival order,
// stepping the clock to each multiple of step before the first arrival
// beyond it (the fleet engine's watermark protocol), and then drains.
// onStep, when non-nil, runs after every step.
func stepIncremental(t *testing.T, inc *Incremental, invs []workload.Invocation, step time.Duration, onStep func(mark time.Duration)) {
	t.Helper()
	mark := step
	for i, inv := range invs {
		for inv.Arrival > mark {
			if err := inc.RunTo(mark); err != nil {
				t.Fatal(err)
			}
			if onStep != nil {
				onStep(mark)
			}
			mark += step
		}
		if err := inc.Admit(inc.Pool().Get(inv, simkern.TaskID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// feedIncremental admits with look-ahead: before the clock steps to
// T+step, every arrival before T+2·step is admitted, so the event heap
// holds arrivals up to two steps ahead of the clock. Then it drains.
func feedIncremental(t *testing.T, inc *Incremental, invs []workload.Invocation, step time.Duration) {
	t.Helper()
	i := 0
	for mark := time.Duration(0); i < len(invs); mark += step {
		if mark > 0 {
			if err := inc.RunTo(mark); err != nil {
				t.Fatal(err)
			}
		}
		for ; i < len(invs) && invs[i].Arrival < mark+2*step; i++ {
			if err := inc.Admit(inc.Pool().Get(invs[i], simkern.TaskID(i+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := inc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMatchesMaterialized is the layer-local equivalence proof: the
// same workload driven through ExecStats (everything pre-seeded, Collect
// at the end) and through an Incremental stepped at DefaultWindow
// watermarks (lazy admission, completion sink) must produce bit-for-bit
// identical records, makespans, and core counters — for a tick-driven
// preempting policy (CFS) and a tickless one (FIFO).
func TestStreamMatchesMaterialized(t *testing.T) {
	invs := testInvocations(t, 400)
	policies := map[string]func() ghost.Policy{
		"cfs":  func() ghost.Policy { return cfs.New(cfs.Params{}) },
		"fifo": func() ghost.Policy { return fifo.New(fifo.Config{}) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			kcfg := simkern.DefaultConfig(4)
			mat, err := ExecStats(kcfg, mk(), ghost.Config{}, AddTasks(workload.Tasks(invs)), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := metrics.Collect(mat)

			var got metrics.Store
			inc, err := NewIncremental(kcfg, mk(), ghost.Config{}, &got)
			if err != nil {
				t.Fatal(err)
			}
			stepIncremental(t, inc, invs, DefaultWindow, nil)
			sameRecords(t, got.Flatten(), want.Records)
			st := inc.k
			if st.Makespan() != mat.Makespan() {
				t.Errorf("makespan %v != %v", st.Makespan(), mat.Makespan())
			}
			for c := 0; c < kcfg.Cores; c++ {
				id := simkern.CoreID(c)
				if st.CorePreemptions(id) != mat.CorePreemptions(id) || st.CoreSwitches(id) != mat.CoreSwitches(id) {
					t.Errorf("core %d counters diverge", c)
				}
			}
		})
	}
}

// TestStreamRecyclesThroughPool: the incremental run must complete with
// far fewer live task structs than invocations — the memory bound lazy
// admission and recycling exist for.
func TestStreamRecyclesThroughPool(t *testing.T) {
	invs := testInvocations(t, 600)
	acc := metrics.NewAccumulator(pricing.Default())
	inc, err := NewIncremental(simkern.DefaultConfig(4), cfs.New(cfs.Params{}), ghost.Config{}, acc)
	if err != nil {
		t.Fatal(err)
	}
	stepIncremental(t, inc, invs, DefaultWindow, nil)
	if acc.Completed() != len(invs) {
		t.Fatalf("accumulator saw %d completions, want %d", acc.Completed(), len(invs))
	}
	// Every retired struct ends up pooled; the pool's high-water mark is
	// the run's peak concurrency, which must be far below the total.
	if free := inc.Pool().FreeLen(); free == 0 || free >= len(invs)/2 {
		t.Errorf("pool free list = %d of %d tasks; recycling is not bounding memory", free, len(invs))
	}
}

// TestMachinesShareAPool: machines handed one task pool draw from it and
// recycle into it, so a task retired on one carries the next machine's
// arrival; a nil pool means a private one.
func TestMachinesShareAPool(t *testing.T) {
	pool := workload.NewTaskPool()
	var machines []*Incremental
	for range 2 {
		inc, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, &metrics.Store{}, pool)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Pool() != pool {
			t.Fatal("a machine given a pool recycles elsewhere")
		}
		machines = append(machines, inc)
	}
	inv := workload.Invocation{Arrival: time.Millisecond, FibN: 30, Duration: time.Millisecond, MemMB: 128}
	first := pool.Get(inv, 1)
	for i, inc := range machines {
		task := first
		if i > 0 {
			task = pool.Get(inv, simkern.TaskID(i+1))
			if task != first {
				t.Fatal("the second machine's task is not the one the first machine retired")
			}
		}
		if err := inc.Admit(task); err != nil {
			t.Fatal(err)
		}
		if err := inc.Drain(); err != nil {
			t.Fatal(err)
		}
		if pool.FreeLen() != 1 {
			t.Fatalf("machine %d: shared pool holds %d tasks after the drain, want 1", i, pool.FreeLen())
		}
	}
	private, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, &metrics.Store{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if private.Pool() == nil || private.Pool() == pool {
		t.Error("a nil pool did not give the machine a private one")
	}
}

// TestIncrementalValidation covers the error paths.
func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, nil); err == nil {
		t.Error("missing sink accepted")
	}
	two := []*workload.TaskPool{workload.NewTaskPool(), workload.NewTaskPool()}
	if _, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, &metrics.Store{}, two...); err == nil {
		t.Error("two task pools accepted")
	}
	// An arrival behind the clock must surface as an error, not a task
	// that runs in the past — also on a kernel whose sampler does not
	// move the clock.
	for _, kc := range clockKernels() {
		inc := newClockMachine(t, kc)
		if err := inc.RunTo(time.Second); err != nil {
			t.Fatal(err)
		}
		late := &simkern.Task{ID: 1, Kind: simkern.KindFunction, Arrival: 500 * time.Millisecond, Work: time.Millisecond}
		if err := inc.Admit(late); err == nil {
			t.Errorf("%s: arrival behind the watermark accepted", kc.name)
		}
	}
}

// clockKernel is a kernel configuration the watermark-clock tests run
// on, and whether its sampler runs.
type clockKernel struct {
	name    string
	cfg     simkern.Config
	samples bool
}

// clockKernels returns a sampling kernel and two that do not sample: one
// with no utilization reader and one with no sampling period at all.
// Only the first one's sampler moves the clock between events.
func clockKernels() []clockKernel {
	recording := simkern.DefaultConfig(2)
	recording.RecordUtil = true
	unsampled := simkern.DefaultConfig(2)
	unsampled.SampleEvery = 0
	return []clockKernel{
		{"sampling", recording, true},
		{"no reader", simkern.DefaultConfig(2), false},
		{"SampleEvery 0", unsampled, false},
	}
}

// newClockMachine builds an idle FIFO machine on kc and checks that its
// sampler runs exactly when kc says.
func newClockMachine(t *testing.T, kc clockKernel) *Incremental {
	t.Helper()
	inc, err := NewIncremental(kc.cfg, fifo.New(fifo.Config{}), ghost.Config{}, &metrics.Store{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.k.SamplesUtil() != kc.samples {
		t.Fatalf("%s: SamplesUtil() = %v, want %v", kc.name, inc.k.SamplesUtil(), kc.samples)
	}
	return inc
}

// TestRunToRejectsWatermarkBehindClock: watermarks only move forward. A
// watermark behind the machine's clock is an error naming both times,
// and it leaves the clock where it was, so an arrival before the clock
// is still refused afterwards. Each case runs on every clockKernels
// machine: an accepted RunTo puts the clock on the watermark whether or
// not a sampler runs.
func TestRunToRejectsWatermarkBehindClock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		marks []time.Duration
		bad   int // index of the rejected watermark; -1 if none
	}{
		{"forward", []time.Duration{time.Second, 2 * time.Second, 5 * time.Second}, -1},
		{"repeated", []time.Duration{5 * time.Second, 5 * time.Second}, -1},
		{"one nanosecond", []time.Duration{1, 2}, -1},
		{"back", []time.Duration{5 * time.Second, 2 * time.Second}, 1},
		{"back by one nanosecond", []time.Duration{5 * time.Second, 5*time.Second - 1}, 1},
		{"back after a forward step", []time.Duration{time.Second, 5 * time.Second, 3 * time.Second}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, kc := range clockKernels() {
				inc := newClockMachine(t, kc)
				for i, mark := range tc.marks {
					before := inc.Now()
					err := inc.RunTo(mark)
					if i != tc.bad {
						if err != nil {
							t.Fatalf("%s: RunTo(%v) at %v: %v", kc.name, mark, before, err)
						}
						if inc.Now() != mark {
							t.Fatalf("%s: RunTo(%v) left the clock at %v", kc.name, mark, inc.Now())
						}
						continue
					}
					if err == nil || !strings.Contains(err.Error(), mark.String()) || !strings.Contains(err.Error(), before.String()) {
						t.Fatalf("%s: RunTo(%v) at %v = %v, want an error naming both times", kc.name, mark, before, err)
					}
					if inc.Now() != before {
						t.Fatalf("%s: rejected RunTo(%v) moved the clock from %v to %v", kc.name, mark, before, inc.Now())
					}
					late := &simkern.Task{ID: 1, Kind: simkern.KindFunction, Arrival: mark, Work: time.Millisecond}
					if err := inc.Admit(late); err == nil {
						t.Errorf("%s: arrival at %v accepted with the clock at %v", kc.name, mark, before)
					}
				}
			}
		})
	}
}

// TestAdmitAfterDrainFails: Drain closes admission for good. A task
// handed to a drained machine would never run or be reported, so Admit
// must refuse it rather than leave it outstanding.
func TestAdmitAfterDrainFails(t *testing.T) {
	inc, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, &metrics.Store{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Drain(); err != nil {
		t.Fatal(err)
	}
	late := &simkern.Task{ID: 7, Kind: simkern.KindFunction, Arrival: 2 * time.Second, Work: time.Millisecond}
	err = inc.Admit(late)
	if err == nil || !strings.Contains(err.Error(), "admission") || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Admit after Drain = %v, want an admission-closed error", err)
	}
	if n := inc.k.Outstanding(); n != 0 {
		t.Errorf("a refused task left %d outstanding", n)
	}
}

// idlePolicy hears every message and dispatches nothing.
type idlePolicy struct{}

func (idlePolicy) Name() string            { return "idle" }
func (idlePolicy) Attach(*ghost.Env)       {}
func (idlePolicy) OnMessage(ghost.Message) {}

// TestUndispatchedTaskReportsUnfinished: a policy that never dispatches
// must surface as the drivers' unfinished-task error, not a run that
// never returns.
func TestUndispatchedTaskReportsUnfinished(t *testing.T) {
	invs := testInvocations(t, 3)
	done := make(chan error, 2)
	go func() {
		_, err := ExecStats(simkern.DefaultConfig(1), idlePolicy{}, ghost.Config{}, AddTasks(workload.Tasks(invs)), nil)
		done <- err
	}()
	go func() {
		inc, err := NewIncremental(simkern.DefaultConfig(1), idlePolicy{}, ghost.Config{}, &metrics.Store{})
		if err == nil {
			err = inc.Admit(inc.Pool().Get(invs[0], 1))
		}
		if err == nil {
			err = inc.Drain()
		}
		done <- err
	}()
	for range 2 {
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "unfinished") {
				t.Errorf("err = %v, want an unfinished-task error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run with an undispatched task did not return")
		}
	}
}
