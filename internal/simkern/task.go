// Package simkern is the deterministic discrete-event CPU/kernel simulator
// that stands in for the paper's Linux + ghOSt kernel module substrate.
//
// It models: a fixed set of CPU cores; tasks with arrival times and CPU
// service demands; context-switch direct costs and cold-cache penalties;
// an optional native-interference schedule (time stolen from enclave tasks
// by the host OS); kernel timers; and per-core utilization sampling.
//
// Scheduling *policy* lives above this package (see internal/ghost and
// internal/policy); simkern only provides mechanism: place a task on a
// core, preempt a core, set timers, and observe state. All timestamps are
// time.Duration offsets from simulation start, and every run is fully
// deterministic.
package simkern

import (
	"fmt"
	"time"
)

// TaskID uniquely identifies a task within one simulation.
type TaskID uint64

// CoreID identifies a simulated CPU core, in [0, Config.Cores).
type CoreID int

// NoCore is the CoreID of a task that is not placed on any core.
const NoCore CoreID = -1

// TaskState is the lifecycle state of a task.
type TaskState int

// Task lifecycle: tasks are created New, become Runnable at their arrival
// time, alternate Runnable/Running under policy control, and end Finished —
// or Failed, for admitted tasks aborted before ever running (e.g. microVM
// launch failures when server memory is exhausted).
const (
	StateNew TaskState = iota + 1
	StateRunnable
	StateRunning
	StateFinished
	StateFailed
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateFinished:
		return "finished"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// TaskKind distinguishes plain serverless functions from the auxiliary
// threads a Firecracker microVM spawns (paper §VI-E: "for each invocation
// of Firecracker microVM, there are several threads generated").
type TaskKind int

// Task kinds.
const (
	KindFunction TaskKind = iota + 1
	KindVCPU              // microVM vCPU thread running guest code
	KindVMM               // microVM monitor thread (boot, device emulation)
	KindIO                // microVM IO thread
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	switch k {
	case KindFunction:
		return "function"
	case KindVCPU:
		return "vcpu"
	case KindVMM:
		return "vmm"
	case KindIO:
		return "io"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// NoVM marks a task that does not belong to a microVM.
const NoVM = -1

// Task is one schedulable entity. Public fields are set by the workload
// layer before the task is added to the kernel; runtime fields are owned
// by the kernel and read through accessors.
//
// PolicyData is scratch space for the scheduling policy that currently
// owns the task (e.g. the CFS vruntime bookkeeping); the kernel never
// touches it.
type Task struct {
	ID      TaskID
	Label   string
	Kind    TaskKind
	Arrival time.Duration // when the task becomes runnable
	Work    time.Duration // total CPU service demand
	MemMB   int32         // allocated memory size, drives billing
	FibN    int32         // calibrated Fibonacci argument (0 if n/a)
	VMID    int           // owning microVM, NoVM for plain functions
	// ColdStart is the instance start latency folded into Work by the
	// cluster layer when this invocation spun up a cold instance (zero on
	// warm hits and outside the cold-start model). The kernel never reads
	// it; it rides along so metrics can break cold starts out.
	ColdStart time.Duration

	PolicyData any

	state       TaskState
	core        CoreID
	firstRun    time.Duration // NoTime until first placed on a core
	finish      time.Duration // NoTime until finished
	cpuConsumed time.Duration // CPU actually consumed so far
	extraWork   time.Duration // cache-refill penalties added on preemption
	preemptions int           // times this task was preempted

	// Per-dispatch bookkeeping (valid while Running).
	segStart      time.Duration // when CPU progress of this segment begins (post switch)
	remainingAtGo time.Duration // remaining work at dispatch
	completion    *event        // pending completion event
	arrival       *event        // pending arrival event (nil once fired or cancelled)
}

// NoTime is the sentinel for "not yet happened".
const NoTime time.Duration = -1

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// Core returns the core the task is running on, or NoCore.
func (t *Task) Core() CoreID { return t.core }

// FirstRun returns when the task was first placed on a core, or NoTime.
func (t *Task) FirstRun() time.Duration { return t.firstRun }

// Finish returns the completion time, or NoTime if not finished.
func (t *Task) Finish() time.Duration { return t.finish }

// CPUConsumed returns the CPU time consumed so far. While the task is
// running it reflects the last dispatch boundary, not the current instant;
// use Kernel.TaskCPUConsumed for an up-to-the-instant value.
func (t *Task) CPUConsumed() time.Duration { return t.cpuConsumed }

// Remaining returns the outstanding service demand: the original Work plus
// accumulated cache-refill penalties, minus CPU consumed. While Running it
// reports the value fixed at the last dispatch boundary.
func (t *Task) Remaining() time.Duration {
	if t.state == StateRunning {
		return t.remainingAtGo
	}
	return t.Work + t.extraWork - t.cpuConsumed
}

// ExtraWork returns the total cache-refill penalty added to this task's
// demand by preemptions, so Work always reports the original demand.
func (t *Task) ExtraWork() time.Duration { return t.extraWork }

// Preemptions returns how many times this task has been preempted.
func (t *Task) Preemptions() int { return t.preemptions }

// SetPreemptionsForTest overwrites the task's preemption count. It is a
// test hook for the checks that narrow the count into a record: a test
// can set a count no run reaches. Only the kernel counts preemptions.
func (t *Task) SetPreemptionsForTest(n int) { t.preemptions = n }

// SegmentStart returns when the current on-CPU segment began consuming CPU
// (i.e. after the context-switch window). Valid only while Running.
func (t *Task) SegmentStart() time.Duration { return t.segStart }

// Recycle resets the task to the zero value so the struct can carry a new
// invocation through a later AddTask/AdmitTask. It reports whether the
// reset happened: only finished or failed tasks may be recycled, and the
// caller asserts that nothing else still references the task — in
// particular that the scheduling policy has already processed the task's
// TASK_DEAD message (policies drop their references there). PolicyData is
// cleared so a reused struct cannot leak one task's scheduler bookkeeping
// into the next.
func (t *Task) Recycle() bool {
	if t.state != StateFinished && t.state != StateFailed {
		return false
	}
	*t = Task{}
	return true
}
