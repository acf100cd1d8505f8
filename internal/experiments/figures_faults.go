package experiments

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// faultPlan is one named point of the ext-faults reliability sweep.
type faultPlan struct {
	name string
	cfg  faults.Config
}

// faultPlans resolves the sweep's fault-plan axis from the Env overrides:
// a fault-free baseline (seam threaded but inert), crashes alone, crashes
// with retries, timeouts with retries, and the full plan — enough points
// to separate what crashes cost from what the recovery machinery buys
// back under each scheduler.
func (e *Env) faultPlans() []faultPlan {
	mtbf := e.FaultCrashMTBF
	if mtbf == 0 {
		mtbf = 45 * time.Second
	}
	timeout := e.FaultTimeout
	if timeout == 0 {
		timeout = 20 * time.Second
	}
	attempts := e.FaultMaxAttempts
	if attempts == 0 {
		attempts = 3
	}
	const downtime = 10 * time.Second
	retry := faults.RetryPolicy{MaxAttempts: attempts}
	return []faultPlan{
		{"none", faults.Config{Seed: e.Seed, Instrument: true}},
		{"crash", faults.Config{Seed: e.Seed, CrashMTBF: mtbf, Downtime: downtime}},
		{"crash+retry", faults.Config{Seed: e.Seed, CrashMTBF: mtbf, Downtime: downtime, Retry: retry}},
		{"timeout+retry", faults.Config{Seed: e.Seed, Timeout: timeout, Retry: retry}},
		{"crash+timeout+retry", faults.Config{Seed: e.Seed, CrashMTBF: mtbf, Downtime: downtime, Timeout: timeout, Retry: retry}},
	}
}

// ExtFaults puts the paper's cost lens on reliability: the main two-minute
// workload on a fixed fleet under the deterministic fault layer, sweeping
// fault plan × per-server scheduler. Crashes kill every resident task and
// void the server's warm state; timeouts abort attempts that outlive their
// deadline; the retry policy re-admits killed work with exponential
// backoff. Killed attempts' CPU stays billed (wasted_cpu_s), so the
// cost-per-goodput column is the reliability analogue of Table I: what a
// successfully completed invocation really costs once the failed attempts
// it rode with are paid for. The scheduler changes the answer — retry
// amplification differs because schedulers differ in how much CPU a doomed
// attempt has consumed by the time the crash or deadline kills it.
func ExtFaults(e *Env) (*Figure, error) {
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	coresPer, servers := 4, 2
	if e.Scale != ScaleQuick {
		coresPer, servers = 8, 8
	}
	hybridCfg := e.HybridConfig(invs)
	hybridCfg.FIFOCores = coresPer / 2
	schedulers := []struct {
		name    string
		factory func() ghost.Policy
	}{
		{"fifo", e.Baselines()["fifo"]},
		{"cfs", e.Baselines()["cfs"]},
		{"hybrid", func() ghost.Policy { return core.New(hybridCfg) }},
	}
	plans := e.faultPlans()

	fig := NewFigure("ext-faults",
		"fault plan × scheduler: crashes, timeouts, retry/backoff economics (beyond the paper)",
		"plan", "sched", "crashes", "kills", "retries", "giveups",
		"goodput_pct", "retry_amp", "wasted_cpu_s", "p99_response_s",
		"cost_usd", "cost_per_kgood_usd")
	type gridCell struct{ p, s int }
	grid := make([]gridCell, 0, len(plans)*len(schedulers))
	for p := range plans {
		for s := range schedulers {
			grid = append(grid, gridCell{p: p, s: s})
		}
	}
	err = e.Sweep(fig, len(grid), func(i int, c *Cell) error {
		plan, sched := plans[grid[i].p], schedulers[grid[i].s]
		res, err := cluster.Simulate(cluster.Config{
			Servers:  servers,
			Dispatch: cluster.DispatchLeastLoaded,
			Seed:     e.Seed,
			Faults:   plan.cfg,
			Kernel:   simkern.DefaultConfig(coresPer),
			Policy:   sched.factory,
		}, workload.SliceSource(invs))
		if err != nil {
			return fmt.Errorf("%s×%s: %w", plan.name, sched.name, err)
		}
		set := res.Set
		goodput := set.Goodput()
		completed := 0
		for _, r := range set.Records {
			if !r.Failed {
				completed++
			}
		}
		p99Resp := 0.0
		if completed > 0 {
			if p99Resp, err = set.P99(metrics.Response); err != nil {
				return err
			}
		}
		cost := set.Cost(e.Tariff)
		perKGood := 0.0
		if completed > 0 {
			perKGood = cost / float64(completed) * 1000
		}
		c.AddRow(
			plan.name,
			sched.name,
			fmt.Sprintf("%d", res.Faults.Crashes),
			fmt.Sprintf("%d", res.Faults.Kills),
			fmt.Sprintf("%d", res.Faults.Retries),
			fmt.Sprintf("%d", res.Faults.GiveUps),
			fmt.Sprintf("%.2f", 100*goodput),
			fmt.Sprintf("%.3f", set.RetryAmplification()),
			fmtSec(set.WastedCPU().Seconds()),
			fmtSec(p99Resp),
			fmtUSD(cost),
			fmtUSD(perKGood),
		)
		return nil
	})
	if err != nil {
		return nil, err
	}
	plansNote := plans[1].cfg
	fig.Note("%d invocations per cell, %d servers × %d cores; crash MTBF %s (downtime %s), timeout %s, retry budget %d attempts with exponential backoff",
		len(invs), servers, coresPer, plansNote.CrashMTBF, 10*time.Second, plans[3].cfg.Timeout, plans[2].cfg.Retry.MaxAttempts)
	fig.Note("killed attempts' CPU is billed but discarded (wasted_cpu_s feeds cost_usd); quantiles cover completed invocations only")
	fig.Note("cost_per_kgood_usd = total cost per 1000 completed invocations — cost at equal goodput across plans and schedulers")
	fig.Note("the fault timeline is a pure function of (seed, server); the 'none' plan threads the fault seam with zero rates and must match the fault-free baseline exactly")
	return fig, nil
}
