// Command realsched replays a (small) workload as real Linux processes:
// Fibonacci workers spawned at trace arrival times, pinned to a core set,
// optionally under SCHED_FIFO — the paper's plain-process deployment mode,
// in miniature. It measures real response and execution times.
//
// Usage:
//
//	realsched -n 20 -cpus 0,1 -fifo
//
// The binary re-executes itself as the Fibonacci worker (FAASSCHED_FIB_WORKER).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/realproc"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

func main() {
	if realproc.IsWorkerInvocation() {
		os.Exit(realproc.RunWorker())
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "realsched:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n       = flag.Int("n", 20, "number of invocations to replay")
		fibN    = flag.Int("fib-base", 28, "rebase Fibonacci arguments to start here (keep runs short)")
		cpusArg = flag.String("cpus", "0", "comma-separated CPU list to pin workers to")
		useFIFO = flag.Bool("fifo", false, "attempt SCHED_FIFO for workers (needs CAP_SYS_NICE)")
		scale   = flag.Int("time-scale", 10, "divide inter-arrival gaps by this factor")
	)
	flag.Parse()

	cpus, err := parseCPUs(*cpusArg)
	if err != nil {
		return err
	}
	if err := checkFibBase(*fibN); err != nil {
		return err
	}
	// Build a synthetic workload, then rebase the Fibonacci arguments so a
	// demo run completes in seconds rather than re-running the paper's
	// N=36..46 ladder (hours of CPU on a laptop).
	invs, err := buildSmall(*n, *fibN)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %d real processes on CPUs %v (SCHED_FIFO=%v)\n", len(invs), cpus, *useFIFO)
	samples, err := realproc.Run(invs, realproc.Config{
		CPUs:      cpus,
		FIFO:      *useFIFO,
		TimeScale: *scale,
	})
	if err != nil {
		return err
	}
	exec := make([]float64, 0, len(samples))
	resp := make([]float64, 0, len(samples))
	fifoOK := 0
	for _, s := range samples {
		if s.ExitError != nil {
			fmt.Printf("  worker fib(%d): degraded: %v\n", s.FibN, s.ExitError)
			continue
		}
		exec = append(exec, float64(s.Execution())/float64(time.Millisecond))
		resp = append(resp, float64(s.Response())/float64(time.Millisecond))
		if s.FIFOSet {
			fifoOK++
		}
	}
	if len(exec) == 0 {
		return fmt.Errorf("no successful workers")
	}
	e := stats.MustCDF(exec)
	r := stats.MustCDF(resp)
	fmt.Printf("execution ms: %s\n", e.Describe())
	fmt.Printf("response  ms: %s\n", r.Describe())
	if *useFIFO {
		fmt.Printf("SCHED_FIFO applied to %d/%d workers\n", fifoOK, len(samples))
	}
	return nil
}

// checkFibBase rejects a -fib-base whose rebased ladder
// fibBase..fibBase+(fib.MaxN-fib.MinN) leaves [1, math.MaxInt32], the
// arguments an invocation's int32 FibN can carry.
func checkFibBase(fibBase int) error {
	if hi := math.MaxInt32 - (fib.MaxN - fib.MinN); fibBase < 1 || fibBase > hi {
		return fmt.Errorf("-fib-base %d must be in [1, %d]: the rebased arguments fib(%d..%d) must lie in [1, %d]",
			fibBase, hi, fib.MinN, fib.MaxN, math.MaxInt32)
	}
	return nil
}

// buildSmall derives a short synthetic workload and rebases the Fibonacci
// arguments from the paper's fib.MinN..fib.MaxN ladder to
// fibBase..fibBase+10 so a demo run completes in seconds. fibBase must
// pass checkFibBase.
func buildSmall(n, fibBase int) ([]workload.Invocation, error) {
	cfg := trace.DefaultConfig()
	cfg.Minutes = 2
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	invs, err := workload.Builder{}.Build(tr, 0, 2)
	if err != nil {
		return nil, err
	}
	invs = workload.Sample(invs, n)
	out := make([]workload.Invocation, len(invs))
	copy(out, invs)
	for i := range out {
		out[i].FibN += int32(fibBase - fib.MinN)
	}
	return out, nil
}

func parseCPUs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad cpu %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
