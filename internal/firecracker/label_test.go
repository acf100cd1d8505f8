package firecracker

import (
	"math"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// TestLaunchRejectsVMIndexAboveInt32: a launch whose last microVM index
// would not fit metrics.Record.VM is refused before any microVM is
// built. The bound is checked on the count alone; no microVM launches.
func TestLaunchRejectsVMIndexAboveInt32(t *testing.T) {
	if maxVMs != math.MaxInt32 {
		t.Fatalf("maxVMs = %d, want %d: the last index + 1 must fit an int32", maxVMs, math.MaxInt32)
	}
	if err := checkVMCount(maxVMs); err != nil {
		t.Errorf("%d microVMs refused: %v", maxVMs, err)
	}
	if err := checkVMCount(maxVMs + 1); err == nil {
		t.Errorf("%d microVMs accepted", maxVMs+1)
	}
}

// FuzzRecordLabel: a record derives its label from FibN and VM, and for
// any kind (function or vCPU), microVM index and Fibonacci argument
// (negative, inside the label table and above it) it equals the label the
// task was built with — by workload.Task and the task pool for
// functions, by the fleet's microVM builder for vCPU threads.
//
//	go test -run '^$' -fuzz FuzzRecordLabel -fuzztime 15s ./internal/firecracker
func FuzzRecordLabel(f *testing.F) {
	for _, n := range []int32{math.MinInt32, -1, 0, fib.MinN, fib.MaxN, fib.MaxN + 1, 1000, math.MaxInt32} {
		for _, vm := range []uint32{0, 1, maxVMs - 1} {
			f.Add(false, vm, n)
			f.Add(true, vm, n)
		}
	}
	pool := workload.NewTaskPool()
	f.Fuzz(func(t *testing.T, vcpu bool, vm uint32, n int32) {
		inv := workload.Invocation{FibN: n, Duration: time.Millisecond, MemMB: 128}
		var tasks []*simkern.Task
		if vcpu {
			fleet, err := NewFleet(fifo.New(fifo.Config{}), Config{})
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, fleet.newVM(int(vm%maxVMs), inv).vcpu)
		} else {
			tasks = append(tasks, workload.Task(inv, 1), pool.Get(inv, 2))
		}
		for _, task := range tasks {
			r := metrics.FromTask(task)
			if got := r.Label(); got != task.Label {
				t.Fatalf("%s task (microVM %d, fib(%d)): record label %q, task label %q", task.Kind, task.VMID, n, got, task.Label)
			}
		}
	})
}
