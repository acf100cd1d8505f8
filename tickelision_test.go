package faassched

// Tick-elision equivalence oracle (DESIGN.md §9): the horizon pump must be
// observationally identical to the naive every-boundary pump it elides.
// ghost.Config.ForceTickPump is the escape hatch that forces the naive
// pump, so each (seed × scheduler × machine) cell runs three ways —
// materialized-naive (the reference), materialized-elided, and
// streamed-elided — and all three must produce identical per-invocation
// record streams. TestGoldenDigests separately pins the same claim against
// the committed digests; this oracle adds randomized workloads, the
// adaptive/rightsizing hybrid (whose monitor mutates state from policy
// timers), and a host-interference machine (where consumption lags wall
// time, so horizons that read wall time are conservative and must
// converge through no-op ticks).

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/las"
	"github.com/faassched/faassched/internal/policy/rr"
	"github.com/faassched/faassched/internal/policy/shinjuku"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// oracleRecordsDiff compares two record streams field by field and returns
// a description of the first divergence ("" when identical).
func oracleRecordsDiff(a, b []metrics.Record) string {
	if len(a) != len(b) {
		return fmt.Sprintf("record count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("record %d: %+v != %+v", i, a[i], b[i])
		}
	}
	return ""
}

// oracleMaterialized runs invs on one machine with pre-seeded tasks and
// returns the collected records plus the enclave's tick counters.
func oracleMaterialized(t *testing.T, kcfg simkern.Config, policy ghost.Policy, invs []Invocation, force bool) ([]metrics.Record, ghost.Stats) {
	t.Helper()
	k, err := simkern.New(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ghost.NewEnclave(k, policy, ghost.Config{ForceTickPump: force})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range workload.Tasks(invs) {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := k.Outstanding(); n != 0 {
		t.Fatalf("%d tasks unfinished under %s", n, policy.Name())
	}
	return metrics.Collect(k).Records, enc.Stats()
}

// oracleStreamed runs invs on one machine under lazy admission — an
// Incremental stepped at DefaultWindow watermarks, as the fleet engine
// drives every server — and returns the records (sorted back to id order)
// plus the tick counters.
func oracleStreamed(t *testing.T, kcfg simkern.Config, policy ghost.Policy, invs []Invocation, force bool) ([]metrics.Record, ghost.Stats) {
	t.Helper()
	var store metrics.Store
	inc, err := simrun.NewIncremental(kcfg, policy, ghost.Config{ForceTickPump: force}, &store)
	if err != nil {
		t.Fatal(err)
	}
	mark := simrun.DefaultWindow
	for i, inv := range invs {
		for inv.Arrival > mark {
			if err := inc.RunTo(mark); err != nil {
				t.Fatal(err)
			}
			mark += simrun.DefaultWindow
		}
		if err := inc.Admit(inc.Pool().Get(inv, simkern.TaskID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := store.Flatten()
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, inc.Stats()
}

// oracleHybrids are the oracle's two hybrid configurations, shared with
// the horizon-cache test. The adaptive + rightsizing hybrid covers the
// policy-timer paths: the monitor migrates cores and the limit moves with
// completions, both of which must re-arm the horizon via
// Env.InvalidateHorizon. A short limit and aggressive rightsizing force
// both mechanisms on this small workload.
var oracleHybrids = []struct {
	name string
	mk   func() *core.Hybrid
}{
	{"hybrid", func() *core.Hybrid { return core.New(core.Config{FIFOCores: 4}) }},
	{"hybrid+dyn", func() *core.Hybrid {
		return core.New(core.Config{
			FIFOCores: 4,
			TimeLimit: core.TimeLimitConfig{Static: 50 * time.Millisecond, Percentile: 0.75},
			Rightsize: core.RightsizeConfig{Enabled: true, Threshold: 0.05, Cooldown: 500 * time.Millisecond},
		})
	}},
}

// oracleMachines are the oracle's kernels, shared with the horizon-cache
// test.
var oracleMachines = []struct {
	name string
	kcfg func() simkern.Config
}{
	{"clean", func() simkern.Config { return simkern.DefaultConfig(8) }},
	// Under host interference consumption lags wall time. The hybrid's
	// FIFO time-limit crossing is still exact (Interference.Advance
	// inverts the stolen time), but horizons that read wall time are
	// conservative: the pump must converge through no-op ticks without
	// ever firing late.
	{"interference", func() simkern.Config {
		kcfg := simkern.DefaultConfig(8)
		kcfg.Interference = simkern.PeriodicInterference{Period: 10 * time.Millisecond, Steal: time.Millisecond}
		return kcfg
	}},
}

func TestTickElisionOracle(t *testing.T) {
	seeds := []int64{1, 7, 42}
	maxInvs := 400
	if testing.Short() {
		seeds = seeds[:2]
		maxInvs = 200
	}

	schedulers := []struct {
		name string
		mk   func() ghost.Policy
	}{
		{"cfs", func() ghost.Policy { return cfs.New(cfs.Params{}) }},
		// fifo+quantum and rr elide through the fifo.Engine quantum-expiry
		// horizon; their expiries are pure wall time, so interference
		// coverage only exercises conservatism, never lateness.
		{"fifo+quantum", func() ghost.Policy {
			return fifo.New(fifo.Config{Quantum: 100 * time.Millisecond})
		}},
		{"rr", func() ghost.Policy { return rr.New(rr.Config{}) }},
		// las elides through an attained-service threshold horizon: under
		// interference consumption lags wall time, so the horizon is
		// conservative and must converge through no-op ticks. shinjuku's
		// segment-start + quantum horizon is pure wall time like rr's.
		{"las", func() ghost.Policy { return las.New(las.Config{}) }},
		{"shinjuku", func() ghost.Policy { return shinjuku.New(shinjuku.Config{}) }},
		{"hybrid", func() ghost.Policy { return oracleHybrids[0].mk() }},
		{"hybrid+dyn", func() ghost.Policy { return oracleHybrids[1].mk() }},
	}
	machines := oracleMachines

	for _, seed := range seeds {
		invs, err := BuildWorkload(WorkloadSpec{Seed: seed, Minutes: 1, MaxInvocations: maxInvs})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			for _, s := range schedulers {
				if m.name == "interference" && s.name == "cfs" {
					continue // CFS horizons are wall-clock exact; covered by clean
				}
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, m.name, s.name), func(t *testing.T) {
					naive, naiveStats := oracleMaterialized(t, m.kcfg(), s.mk(), invs, true)
					elided, elidedStats := oracleMaterialized(t, m.kcfg(), s.mk(), invs, false)
					if d := oracleRecordsDiff(naive, elided); d != "" {
						t.Fatalf("elided pump diverges from naive pump: %s", d)
					}
					streamed, _ := oracleStreamed(t, m.kcfg(), s.mk(), invs, false)
					if d := oracleRecordsDiff(naive, streamed); d != "" {
						t.Fatalf("streamed elided run diverges from naive pump: %s", d)
					}
					// Guard against a vacuous pass: the naive pump must
					// have ticked, and the elided pump must have skipped
					// boundaries while firing at most as many ticks.
					if naiveStats.Ticks == 0 {
						t.Fatal("naive pump fired no ticks; oracle proves nothing")
					}
					if naiveStats.TicksElided != 0 {
						t.Fatalf("naive pump reported %d elided ticks", naiveStats.TicksElided)
					}
					if elidedStats.TicksElided == 0 {
						t.Fatalf("elided pump skipped no boundaries (fired %d)", elidedStats.Ticks)
					}
					if elidedStats.Ticks > naiveStats.Ticks {
						t.Fatalf("elided pump fired %d ticks, naive only %d", elidedStats.Ticks, naiveStats.Ticks)
					}
				})
			}
		}
	}
}
