//go:build linux

// Package realproc runs the paper's "plain Linux processes" mode for real:
// it re-executes the current binary as Fibonacci worker processes (the
// paper's step ③, "workload generator asynchronously launches Fibonacci
// functions"), pins them to a core set with sched_setaffinity (the enclave
// stand-in, step ④), optionally switches them to SCHED_FIFO, and measures
// real wall-clock response and execution times.
//
// Everything uses only the standard library's syscall package. Operations
// that need privileges (SCHED_FIFO requires CAP_SYS_NICE) degrade into
// typed errors the caller can treat as "skip".
package realproc

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/workload"
)

// WorkerEnv is the environment variable that turns an exec of this binary
// into a Fibonacci worker: its value is the argument N.
const WorkerEnv = "FAASSCHED_FIB_WORKER"

// IsWorkerInvocation reports whether the current process was started as a
// worker. Call it first thing in main() (or TestMain) and, if true, call
// RunWorker and exit.
func IsWorkerInvocation() bool {
	return os.Getenv(WorkerEnv) != ""
}

// RunWorker executes the Fibonacci workload encoded in WorkerEnv and
// returns the process exit code.
func RunWorker() int {
	n, err := strconv.Atoi(os.Getenv(WorkerEnv))
	if err != nil || n < 0 || n > 93 {
		fmt.Fprintf(os.Stderr, "realproc worker: bad %s=%q\n", WorkerEnv, os.Getenv(WorkerEnv))
		return 2
	}
	v, d := fib.Measure(n)
	fmt.Printf("fib(%d)=%d in %v\n", n, v, d)
	return 0
}

// SetAffinity pins pid (0 = calling thread) to the given CPU list using
// raw sched_setaffinity.
func SetAffinity(pid int, cpus []int) error {
	if len(cpus) == 0 {
		return fmt.Errorf("realproc: empty CPU list")
	}
	var mask [16]uintptr // 1024 CPUs
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*int(wordBits) {
			return fmt.Errorf("realproc: cpu %d out of range", c)
		}
		mask[c/int(wordBits)] |= 1 << (uintptr(c) % wordBits)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(pid), uintptr(len(mask)*int(wordBytes)), uintptr(unsafePointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("realproc: sched_setaffinity(%d, %v): %w", pid, cpus, errno)
	}
	return nil
}

// schedFIFO is the SCHED_FIFO policy number on Linux.
const schedFIFO = 1

// schedParam mirrors struct sched_param.
type schedParam struct {
	Priority int32
}

// SetFIFO switches pid (0 = calling thread) to SCHED_FIFO at the given
// priority (1..99). Requires CAP_SYS_NICE; callers should treat EPERM as
// "not available here".
func SetFIFO(pid, priority int) error {
	if priority < 1 || priority > 99 {
		return fmt.Errorf("realproc: FIFO priority %d out of [1,99]", priority)
	}
	param := schedParam{Priority: int32(priority)}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER,
		uintptr(pid), uintptr(schedFIFO), uintptr(unsafePointer(&param)))
	if errno != 0 {
		return fmt.Errorf("realproc: sched_setscheduler(%d, SCHED_FIFO, %d): %w", pid, priority, errno)
	}
	return nil
}

// Config configures a real-process run.
type Config struct {
	// CPUs is the core set every worker is pinned to (the "enclave").
	// Empty means no pinning.
	CPUs []int
	// FIFO switches workers to SCHED_FIFO (priority 10) when possible.
	// Failures to do so are reported per-sample, not fatal.
	FIFO bool
	// TimeScale divides inter-arrival gaps to compress long traces into
	// short wall-clock runs; 0 or 1 replays in real time.
	TimeScale int
	// MaxProcs caps concurrently running workers to protect the host.
	// Zero defaults to 4 × NumCPU.
	MaxProcs int
}

// Sample is one worker's measured lifecycle.
type Sample struct {
	FibN      int
	Arrival   time.Duration // intended arrival offset
	Start     time.Duration // when the process was actually spawned
	Finish    time.Duration // when it exited
	FIFOSet   bool          // SCHED_FIFO applied successfully
	ExitError error
}

// Execution returns the worker's wall-clock run time.
func (s Sample) Execution() time.Duration { return s.Finish - s.Start }

// Response returns spawn delay relative to the intended arrival.
func (s Sample) Response() time.Duration { return s.Start - s.Arrival }

// Run replays invocations as real pinned processes and measures them.
// It blocks until every worker exits.
func Run(invs []workload.Invocation, cfg Config) ([]Sample, error) {
	if len(invs) == 0 {
		return nil, fmt.Errorf("realproc: empty invocation list")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("realproc: locating executable: %w", err)
	}
	scale := cfg.TimeScale
	if scale < 1 {
		scale = 1
	}
	maxProcs := cfg.MaxProcs
	if maxProcs < 1 {
		maxProcs = 4 * runtime.NumCPU()
	}
	sorted := make([]workload.Invocation, len(invs))
	copy(sorted, invs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })

	type done struct {
		idx    int
		finish time.Duration
		err    error
	}
	samples := make([]Sample, len(sorted))
	sem := make(chan struct{}, maxProcs)
	// Buffered so waiters never block reporting while the spawn loop is
	// still waiting on the semaphore.
	results := make(chan done, len(sorted))
	start := time.Now()

	for i, inv := range sorted {
		target := inv.Arrival / time.Duration(scale)
		if sleep := target - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		sem <- struct{}{}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", WorkerEnv, inv.FibN))
		if err := cmd.Start(); err != nil {
			<-sem
			return nil, fmt.Errorf("realproc: spawning worker %d: %w", i, err)
		}
		samples[i] = Sample{FibN: int(inv.FibN), Arrival: target, Start: time.Since(start)}
		if len(cfg.CPUs) > 0 {
			if err := SetAffinity(cmd.Process.Pid, cfg.CPUs); err != nil {
				samples[i].ExitError = err
			}
		}
		if cfg.FIFO {
			samples[i].FIFOSet = SetFIFO(cmd.Process.Pid, 10) == nil
		}
		go func(idx int, cmd *exec.Cmd) {
			err := cmd.Wait()
			<-sem
			results <- done{idx: idx, finish: time.Since(start), err: err}
		}(i, cmd)
	}
	for range sorted {
		d := <-results
		samples[d.idx].Finish = d.finish
		if d.err != nil && samples[d.idx].ExitError == nil {
			samples[d.idx].ExitError = d.err
		}
	}
	return samples, nil
}
