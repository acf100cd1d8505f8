package core_test

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/policy/policytest"
)

// TestSpillCycleAllocationFree: once warmed, a cycle in which every task
// overruns the FIFO limit, spills to the CFS group, time-shares there
// under tick preemption and completes allocates nothing per task — the
// CFS group's per-task records and runqueue nodes are recycled, not
// rebuilt.
func TestSpillCycleAllocationFree(t *testing.T) {
	h := core.New(core.Config{
		FIFOCores: 1,
		TimeLimit: core.TimeLimitConfig{Static: 5 * time.Millisecond},
	})
	work := make([]time.Duration, 6)
	for i := range work {
		work[i] = 20 * time.Millisecond
	}
	r := policytest.NewRerun(t, 2, h, work)
	for i := 0; i < 30; i++ {
		if r.Cycle() == 0 {
			t.Fatal("cycle saw no preemptions; the spill path is untested")
		}
	}
	if h.Spills() == 0 {
		t.Fatal("no FIFO→CFS spills")
	}
	// AllocsPerRun reports whole allocations per cycle. The monitor's
	// four metric series grow by amortized doubling once per monitor
	// period, which stays far below one per cycle; a per-task allocation
	// anywhere on the spill path would cost at least six.
	if allocs := testing.AllocsPerRun(20, func() { r.Cycle() }); allocs != 0 {
		t.Errorf("warmed hybrid spill cycle allocates %.1f/run, want 0", allocs)
	}
}
