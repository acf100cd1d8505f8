// Package policytest provides shared helpers for exercising scheduling
// policies against the simulated kernel, plus cross-policy invariant
// checks used by every policy's test suite.
package policytest

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/simkern"
)

// Workload is a reproducible task list for policy tests.
type Workload struct {
	Tasks []*simkern.Task
}

// Uniform returns n tasks with the given inter-arrival time and service
// demand.
func Uniform(n int, iat, work time.Duration) Workload {
	w := Workload{Tasks: make([]*simkern.Task, 0, n)}
	for i := 0; i < n; i++ {
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID:      simkern.TaskID(i + 1),
			Kind:    simkern.KindFunction,
			Arrival: time.Duration(i) * iat,
			Work:    work,
			MemMB:   128,
		})
	}
	return w
}

// Mixed returns n tasks alternating between short and long service
// demands, all arriving in a burst at time zero spaced by iat.
func Mixed(n int, iat, short, long time.Duration) Workload {
	w := Workload{Tasks: make([]*simkern.Task, 0, n)}
	for i := 0; i < n; i++ {
		work := short
		if i%4 == 3 { // every fourth task is long
			work = long
		}
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID:      simkern.TaskID(i + 1),
			Kind:    simkern.KindFunction,
			Arrival: time.Duration(i) * iat,
			Work:    work,
			MemMB:   128,
		})
	}
	return w
}

// Run builds a kernel+enclave around policy, runs the workload to
// completion, and returns the kernel for inspection. Message latency is
// disabled so tests reason about exact times.
func Run(t *testing.T, cores int, policy ghost.Policy, w Workload) *simkern.Kernel {
	t.Helper()
	k := RunNoCheck(t, cores, policy, w)
	AssertAllFinished(t, k)
	return k
}

// RunNoCheck is Run without the completion assertion.
func RunNoCheck(t *testing.T, cores int, policy ghost.Policy, w Workload) *simkern.Kernel {
	t.Helper()
	return RunGhostConfig(t, cores, policy, w, ghost.Config{NoLatency: true})
}

// RunWithLatency is Run with realistic delegation message latency, which
// exercises every policy's failed-transaction paths (an in-flight
// completion makes a preempt commit fail, exactly like ghOSt).
func RunWithLatency(t *testing.T, cores int, policy ghost.Policy, w Workload, latency time.Duration) *simkern.Kernel {
	t.Helper()
	k := RunGhostConfig(t, cores, policy, w, ghost.Config{MsgLatency: latency})
	AssertAllFinished(t, k)
	return k
}

// RunGhostConfig builds the kernel+enclave with an explicit delegation
// config and runs the workload to completion of the event loop.
func RunGhostConfig(t *testing.T, cores int, policy ghost.Policy, w Workload, gcfg ghost.Config) *simkern.Kernel {
	t.Helper()
	return RunKernel(t, KernelConfig(cores), policy, w, gcfg)
}

// KernelConfig returns the kernel configuration of the Run helpers: 5 µs
// switches, 50 µs cache penalty and 100 ms utilization sampling.
func KernelConfig(cores int) simkern.Config {
	return simkern.Config{
		Cores:        cores,
		SwitchCost:   5 * time.Microsecond,
		CachePenalty: 50 * time.Microsecond,
		SampleEvery:  100 * time.Millisecond,
	}
}

// RunKernel is RunGhostConfig on an explicit kernel configuration, e.g.
// KernelConfig with RecordUtil set.
func RunKernel(t *testing.T, kcfg simkern.Config, policy ghost.Policy, w Workload, gcfg ghost.Config) *simkern.Kernel {
	t.Helper()
	k, err := simkern.New(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.NewEnclave(k, policy, gcfg); err != nil {
		t.Fatal(err)
	}
	for _, task := range w.Tasks {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	return k
}

// AssertAllFinished checks that every task completed exactly once with
// consistent timestamps and conserved work — the core scheduling
// invariants every policy must uphold.
func AssertAllFinished(t *testing.T, k *simkern.Kernel) {
	t.Helper()
	if k.Outstanding() != 0 {
		t.Fatalf("%d tasks unfinished", k.Outstanding())
	}
	var totalCPU time.Duration
	for _, task := range k.Tasks() {
		if task.State() != simkern.StateFinished {
			t.Fatalf("task %d state %v", task.ID, task.State())
		}
		if task.FirstRun() < task.Arrival {
			t.Errorf("task %d ran before arrival", task.ID)
		}
		if task.Finish() < task.FirstRun() {
			t.Errorf("task %d finished before first run", task.ID)
		}
		want := task.Work + task.ExtraWork()
		if task.CPUConsumed() != want {
			t.Errorf("task %d consumed %v, want %v", task.ID, task.CPUConsumed(), want)
		}
		totalCPU += task.CPUConsumed()
	}
	var busy time.Duration
	for c := 0; c < k.CoreCount(); c++ {
		busy += k.CoreBusy(simkern.CoreID(c))
	}
	if busy < totalCPU {
		t.Errorf("cores busy %v < CPU consumed %v", busy, totalCPU)
	}
	if cap := time.Duration(k.CoreCount()) * k.Makespan(); busy > cap {
		t.Errorf("cores busy %v > capacity %v", busy, cap)
	}
}

// MeanExecution returns the mean execution time (completion − first run).
func MeanExecution(k *simkern.Kernel) time.Duration {
	var sum time.Duration
	n := 0
	for _, task := range k.Tasks() {
		if task.State() == simkern.StateFinished {
			sum += task.Finish() - task.FirstRun()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// MeanResponse returns the mean response time (first run − arrival).
func MeanResponse(k *simkern.Kernel) time.Duration {
	var sum time.Duration
	n := 0
	for _, task := range k.Tasks() {
		if task.State() == simkern.StateFinished {
			sum += task.FirstRun() - task.Arrival
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// TotalPreemptions sums preemption counts across tasks.
func TotalPreemptions(k *simkern.Kernel) int {
	n := 0
	for _, task := range k.Tasks() {
		n += task.Preemptions()
	}
	return n
}

// Rerun drives one kernel+enclave through repeated cycles over a fixed
// set of pooled tasks: each Cycle recycles every task, re-admits it with
// its original demand just after the current instant, and runs the
// kernel dry. After a few warm-up cycles every queue, pool and free list
// is at steady capacity, so testing.AllocsPerRun over Cycle measures the
// steady-state per-invocation allocations of the policy under test.
type Rerun struct {
	t     testing.TB
	k     *simkern.Kernel
	tasks []*simkern.Task
	work  []time.Duration
}

// NewRerun wires policy into a kernel of the given size (task table off,
// as in fleet replays) and pools one task per entry of work. Message
// latency is disabled so cycles are exact.
func NewRerun(t testing.TB, cores int, policy ghost.Policy, work []time.Duration) *Rerun {
	t.Helper()
	k, err := simkern.New(simkern.Config{
		Cores:        cores,
		SwitchCost:   5 * time.Microsecond,
		CachePenalty: 50 * time.Microsecond,
		DiscardTasks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.NewEnclave(k, policy, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	r := &Rerun{t: t, k: k, work: work, tasks: make([]*simkern.Task, len(work))}
	for i := range r.tasks {
		r.tasks[i] = &simkern.Task{}
	}
	return r
}

// Cycle re-admits every pooled task (IDs 1..n, one microsecond apart),
// runs the kernel until its event queue drains, and returns the total
// preemptions the cycle's tasks suffered.
func (r *Rerun) Cycle() int {
	now := r.k.Now()
	for i, task := range r.tasks {
		if task.State() != 0 && !task.Recycle() {
			r.t.Fatalf("task %d still live at cycle start (state %v)", i+1, task.State())
		}
		task.ID = simkern.TaskID(i + 1)
		task.Kind = simkern.KindFunction
		task.Arrival = now + time.Duration(i+1)*time.Microsecond
		task.Work = r.work[i]
		task.MemMB = 128
		if err := r.k.AddTask(task); err != nil {
			r.t.Fatal(err)
		}
	}
	if _, err := r.k.Run(0); err != nil {
		r.t.Fatal(err)
	}
	preemptions := 0
	for i, task := range r.tasks {
		if task.State() != simkern.StateFinished {
			r.t.Fatalf("task %d state %v after the cycle", i+1, task.State())
		}
		preemptions += task.Preemptions()
	}
	return preemptions
}
