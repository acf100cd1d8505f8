package experiments

import (
	"fmt"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/firecracker"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// fcWorkload derives the Firecracker workload: invocations from the first
// ten minutes capped just above the server's microVM capacity, with the
// guest size pinned to 128 MB (the paper runs the Fibonacci binary in
// minimal guests; memory, not compute, is what capped it at 2,952 VMs).
func (e *Env) fcWorkload() ([]workload.Invocation, firecracker.Config, error) {
	invs, err := e.W10()
	if err != nil {
		return nil, firecracker.Config{}, err
	}
	fcCfg := firecracker.Config{}
	target := fullFCWorkload
	if e.Scale == ScaleQuick {
		target = quickFCWorkload
		// Shrink the server so the memory wall still appears at quick
		// scale: fit ~90% of the attempted launches.
		perVM := 128 + firecracker.DefaultVMConfig().VMMOverheadMB
		fcCfg.ServerMemMB = perVM * (target * 9 / 10)
	}
	invs = workload.TakeN(invs, target)
	pinned := make([]workload.Invocation, len(invs))
	copy(pinned, invs)
	for i := range pinned {
		pinned[i].MemMB = 128
	}
	return pinned, fcCfg, nil
}

// runFirecracker executes the Firecracker workload under inner, seeding
// the machine with the fleet's microVM launches, and returns the kernel,
// fleet, and collected metrics.
func (e *Env) runFirecracker(inner ghost.Policy, invs []workload.Invocation, fcCfg firecracker.Config) (*RunOutput, *firecracker.Fleet, error) {
	fleet, err := firecracker.NewFleet(inner, fcCfg)
	if err != nil {
		return nil, nil, err
	}
	k, err := simrun.ExecStats(simkern.DefaultConfig(e.Cores), fleet, ghost.Config{},
		func(k *simkern.Kernel) error { return fleet.Launch(k, invs) }, nil)
	if err != nil {
		return nil, nil, err
	}
	return &RunOutput{Kernel: k, Set: metrics.Collect(k), Policy: fleet}, fleet, nil
}

// Fig21 reproduces Figure 21: launching thousands of Firecracker microVMs
// under the hybrid vs CFS — metric CDFs, including the launch-failure
// fraction the paper shows as a horizontal offset.
func Fig21(e *Env) (*Figure, error) {
	invs, fcCfg, err := e.fcWorkload()
	if err != nil {
		return nil, err
	}
	fig := NewFigure("fig21", "Firecracker microVMs: hybrid vs CFS metric CDFs (WFC)",
		"scheduler", "metric", "x_ms", "cum_frac")

	hybridCfg := core.Config{
		FIFOCores: e.Cores / 2,
		TimeLimit: core.TimeLimitConfig{Static: e.P90Limit(invs)},
	}
	hOut, hFleet, err := e.runFirecracker(newHybrid(hybridCfg), invs, fcCfg)
	if err != nil {
		return nil, err
	}
	if err := addMetricCDFs(fig, "hybrid", hOut.Set); err != nil {
		return nil, err
	}
	cOut, cFleet, err := e.runFirecracker(e.Baselines()["cfs"](), invs, fcCfg)
	if err != nil {
		return nil, err
	}
	if err := addMetricCDFs(fig, "cfs", cOut.Set); err != nil {
		return nil, err
	}
	fig.Note("hybrid: %d launched, %d failed (memory wall); cfs: %d launched, %d failed",
		hFleet.Launched(), hFleet.Failed(), cFleet.Launched(), cFleet.Failed())
	fig.Note("paper launches 2,952 microVMs on a 512GB server before exhausting memory")
	return fig, nil
}

// Fig22 reproduces Figure 22: the Firecracker workload's cost by memory
// size under the hybrid vs CFS — smaller but still significant savings
// (~10% in the paper).
func Fig22(e *Env) (*Figure, error) {
	invs, fcCfg, err := e.fcWorkload()
	if err != nil {
		return nil, err
	}
	hybridCfg := core.Config{
		FIFOCores: e.Cores / 2,
		TimeLimit: core.TimeLimitConfig{Static: e.P90Limit(invs)},
	}
	hOut, _, err := e.runFirecracker(newHybrid(hybridCfg), invs, fcCfg)
	if err != nil {
		return nil, err
	}
	cOut, _, err := e.runFirecracker(e.Baselines()["cfs"](), invs, fcCfg)
	if err != nil {
		return nil, err
	}
	fig := NewFigure("fig22", "Firecracker cost by memory size: hybrid vs CFS (WFC)",
		"mem_mb", "hybrid_usd", "cfs_usd", "saving_pct")
	for _, mem := range pricing.StandardMemorySizesMB {
		h := hOut.Set.CostAtUniformMemory(e.Tariff, mem)
		c := cOut.Set.CostAtUniformMemory(e.Tariff, mem)
		fig.AddRow(fmt.Sprintf("%d", mem), fmtUSD(h), fmtUSD(c),
			fmt.Sprintf("%.1f", 100*(1-h/c)))
	}
	fig.Note("paper reports ~10%% cost reduction under Firecracker (vs ~40x for plain processes)")
	return fig, nil
}
