package faassched

// Horizon-cache check (DESIGN.md §20): the hybrid caches each FIFO core's
// time-limit crossing, keyed by runner and limit, and drops the entry
// wherever a runner leaves a FIFO core. A task struct can come back to
// the same core with the same limit — a fault retry reuses it, and the
// pooled dataflows recycle it for a new invocation — so a missed drop
// would hand the new segment the old segment's crossing. The hybrid's
// lane-check hook audits the cache after every re-evaluation: each entry
// must sit on a FIFO core whose runner it describes, with the crossing a
// from-scratch computation gives, or belong to a task whose TASK_DEAD is
// still in flight. Any other entry fails the test, so dropping any one
// invalidation fails it as soon as a runner leaves its core that way. The
// hook also audits every tick that skips the limit scan: no FIFO runner
// may be over the limit then.

import (
	"fmt"
	"testing"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
)

// laneChecker counts lane audits and reports the first few faults.
type laneChecker struct {
	t      *testing.T
	checks int
	bad    int
}

func (lc *laneChecker) hook(h *core.Hybrid) *core.Hybrid {
	h.SetLaneCheck(func(err error) {
		lc.checks++
		if err != nil {
			lc.bad++
			if lc.bad <= 3 {
				lc.t.Error(err)
			}
		}
	})
	return h
}

func (lc *laneChecker) done() {
	lc.t.Helper()
	if lc.checks == 0 {
		lc.t.Fatal("no lane audits ran; the test proves nothing")
	}
	if lc.bad > 0 {
		lc.t.Errorf("%d of %d lane audits found a fault", lc.bad, lc.checks)
	}
	lc.t.Logf("%d lane audits", lc.checks)
}

// TestHorizonCacheMatchesScan runs the tick-elision oracle's hybrid
// machines, materialized and pooled-streamed, and the ownership golden's
// crash-plan fleet (evictions, retries, migrations, an adaptive limit)
// with the lane check installed.
func TestHorizonCacheMatchesScan(t *testing.T) {
	seeds := []int64{1, 7, 42}
	maxInvs := 400
	if testing.Short() {
		seeds = seeds[:2]
		maxInvs = 200
	}
	for _, seed := range seeds {
		invs, err := BuildWorkload(WorkloadSpec{Seed: seed, Minutes: 1, MaxInvocations: maxInvs})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range oracleMachines {
			for _, hy := range oracleHybrids {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, m.name, hy.name), func(t *testing.T) {
					lc := &laneChecker{t: t}
					oracleMaterialized(t, m.kcfg(), lc.hook(hy.mk()), invs, false)
					oracleStreamed(t, m.kcfg(), lc.hook(hy.mk()), invs, false)
					lc.done()
				})
			}
		}
	}

	t.Run("crash-fleet/hybrid+dyn", func(t *testing.T) {
		_, cfg, err := clusterConfig(ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded,
			Scheduler: SchedulerHybridDyn, Seed: 1, Faults: crashPlan(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Servers run on their shards' goroutines, so each gets its own
		// checker; the totals are read after the run has joined them.
		var checkers []*laneChecker
		mk := cfg.Policy
		cfg.Policy = func() ghost.Policy {
			lc := &laneChecker{t: t}
			checkers = append(checkers, lc)
			return lc.hook(mk().(*core.Hybrid))
		}
		res, err := cluster.Simulate(cfg, goldenWorkload(t))
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.Kills == 0 || res.Stats.Migrations == 0 {
			t.Fatalf("crash fleet: kills=%d migrations=%d, want both > 0", res.Faults.Kills, res.Stats.Migrations)
		}
		total := &laneChecker{t: t}
		for _, lc := range checkers {
			total.checks += lc.checks
			total.bad += lc.bad
		}
		total.done()
	})
}
