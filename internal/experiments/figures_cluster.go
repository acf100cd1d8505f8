package experiments

import (
	"fmt"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
)

// ExtClusterDispatch goes beyond the paper's single 8-core enclave: the
// main two-minute workload is served by a fleet of servers behind each
// dispatch policy, for several fleet sizes and per-server schedulers. The
// question it answers is whether the hybrid's cost win over CFS survives
// cluster-level load imbalance — dispatch choice changes queueing (p99
// response) and imbalance, while the per-server scheduler changes the
// billed execution time.
func ExtClusterDispatch(e *Env) (*Figure, error) {
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	coresPer := 4
	fleets := []int{2, 4}
	if e.Scale == ScaleFull {
		coresPer = 8
		fleets = []int{4, 8, 16}
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

	fig := NewFigure("ext-cluster-dispatch",
		"fleet size × dispatch policy × per-server scheduler: p99 response, cost, imbalance (beyond the paper)",
		"servers", "dispatch", "sched", "p99_response_s", "p99_turnaround_s", "cost_usd", "imbalance")
	for _, servers := range fleets {
		for _, d := range cluster.Dispatches() {
			for _, s := range schedulers {
				res, err := cluster.Simulate(cluster.Config{
					Servers:  servers,
					Dispatch: d,
					Seed:     e.Seed,
					Kernel:   simkern.DefaultConfig(coresPer),
					Policy:   s.factory,
				}, invs)
				if err != nil {
					return nil, fmt.Errorf("%d×%s×%s: %w", servers, d, s.name, err)
				}
				p99Resp, err := res.Set.P99(metrics.Response)
				if err != nil {
					return nil, err
				}
				p99Turn, err := res.Set.P99(metrics.Turnaround)
				if err != nil {
					return nil, err
				}
				fig.AddRow(
					fmt.Sprintf("%d", servers),
					string(d),
					s.name,
					fmtSec(p99Resp),
					fmtSec(p99Turn),
					fmtUSD(res.Set.Cost(e.Tariff)),
					fmt.Sprintf("%.3f", res.ImbalanceRatio()),
				)
			}
		}
	}
	fig.Note("%d invocations per cell, %d cores per server; imbalance = max/mean busy work across servers", len(invs), coresPer)
	fig.Note("servers simulate concurrently (one goroutine each); results are deterministic for a given seed")
	return fig, nil
}
