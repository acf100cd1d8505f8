package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

// Diurnal sizing. The horizon is what the experiment is about: the trace
// generator's diurnal modulation has a 1440-minute (24 h) period, so only
// multi-hour windows see the load actually swing. Volume is generated at
// RateScale=1 (the already-downscaled Azure-calibrated rate, §V-B), which
// keeps the run CPU-bound rather than pointless: the old materialized
// dataflow could not hold even this volume over 24 h, while streaming
// admission holds only one watermark step regardless of horizon.
const (
	quickDiurnalMinutes     = 30
	fullDiurnalMinutes      = 360  // 6 h
	fullScaleDiurnalMinutes = 1440 // the full 24 h diurnal period

	// Quick scale shrinks the per-minute volume so CI smoke runs in
	// seconds; full scales keep the calibrated 6,221/min target.
	quickDiurnalFunctions = 300
	quickDiurnalPerMin    = 600
)

// diurnalMinutes resolves the effective horizon.
func (e *Env) diurnalMinutes() int {
	if e.DiurnalMinutes > 0 {
		return e.DiurnalMinutes
	}
	switch e.Scale {
	case ScaleFullScale:
		return fullScaleDiurnalMinutes
	case ScaleFull:
		return fullDiurnalMinutes
	default:
		return quickDiurnalMinutes
	}
}

// diurnalWindow resolves the per-window sub-accumulator width for the
// long-horizon experiments: wide enough that each window holds a
// statistically meaningful completion count, narrow enough that the
// diurnal swing shows (≥3 windows at every scale default).
func (e *Env) diurnalWindow() time.Duration {
	switch e.Scale {
	case ScaleFullScale:
		return 2 * time.Hour
	case ScaleFull:
		return time.Hour
	default:
		return 10 * time.Minute
	}
}

// DiurnalSource synthesizes the long-horizon Azure-calibrated trace and
// returns its lazy invocation source plus the horizon in minutes. The
// trace is generated eagerly (O(functions × minutes) counts, a few MB at
// 24 h); invocations are derived minute by minute as the engine's router
// pulls them, so the workload itself is never materialized.
func (e *Env) DiurnalSource() (workload.Source, int, error) {
	minutes := e.diurnalMinutes()
	cfg := trace.DefaultConfig()
	cfg.Seed = e.Seed
	cfg.Minutes = minutes
	cfg.RateScale = 1
	if e.Scale == ScaleQuick {
		cfg.Functions = quickDiurnalFunctions
		cfg.TargetPerMinute = quickDiurnalPerMin
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	src, err := workload.Builder{Model: e.Model, Downscale: 1}.Stream(tr, 0, minutes)
	if err != nil {
		return nil, 0, err
	}
	return src, minutes, nil
}

// ExtDiurnal runs the first experiment the materialized dataflow simply
// could not hold in memory: a multi-hour (up to 24 h) Azure-calibrated
// window replayed end to end through the streaming pipeline — lazy
// arrival admission, task recycling, fixed-memory accumulator sinks —
// for fifo, cfs, and the paper's hybrid. Quantiles are histogram
// estimates (a few percent of relative error); counts, preemptions, and
// costs are exact.
func ExtDiurnal(e *Env) (*Figure, error) {
	src, minutes, err := e.DiurnalSource()
	if err != nil {
		return nil, err
	}
	schedulers := []struct {
		name string
		mk   func() ghost.Policy
	}{
		{"fifo", e.Baselines()["fifo"]},
		{"cfs", e.Baselines()["cfs"]},
		// The hybrid uses the paper's static limit: deriving the p90 limit
		// would require materializing the workload, which is exactly what
		// this experiment avoids.
		{"ours", func() ghost.Policy {
			return newHybrid(core.Config{
				FIFOCores: e.Cores / 2,
				TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit},
			})
		}},
	}

	fig := NewFigure("ext-diurnal",
		fmt.Sprintf("Multi-hour diurnal window (%d min, streamed)", minutes),
		"scheduler", "n", "p50_exec_ms", "p99_exec_ms", "p50_resp_ms", "p99_resp_ms",
		"p99_turn_s", "preemptions", "makespan_s", "cost_usd")
	for _, s := range schedulers {
		win, makespan, ticks, err := e.RunStreamed(s.mk, src)
		if err != nil {
			return nil, fmt.Errorf("ext-diurnal %s: %w", s.name, err)
		}
		// Open windows for the whole horizon: an idle tail must show as
		// empty trailing windows, not silently shorten the track.
		win.EnsureWindows(horizonWindows(minutes, win.Width()))
		acc := win.Total()
		q := func(m metrics.Metric, p float64) string {
			v, err := acc.Quantile(m, p)
			if err != nil {
				return "n/a"
			}
			return fmt.Sprintf("%.1f", v)
		}
		p99TurnS, err := acc.P99(metrics.Turnaround)
		if err != nil {
			return nil, err
		}
		fig.AddRow(s.name,
			fmt.Sprintf("%d", acc.Completed()),
			q(metrics.Execution, 0.5), q(metrics.Execution, 0.99),
			q(metrics.Response, 0.5), q(metrics.Response, 0.99),
			fmtSec(p99TurnS),
			fmt.Sprintf("%d", acc.TotalPreemptions()),
			fmtSec(float64(makespan)/float64(time.Second)),
			fmtUSD(acc.Cost()))
		fig.Note("%s per %v window | %s", s.name, win.Width(), windowTrack(win))
		fig.Note("%s agent ticks: %s", s.name, tickNote(ticks.Ticks, ticks.TicksElided))
	}
	fig.Note("streaming dataflow: lazy admission + task recycling + fixed-memory accumulator sinks; quantiles are log-bucket histogram estimates")
	fig.Note("volume: RateScale=1 (already-downscaled Azure-calibrated rate); horizon %d min of the 1440-min diurnal cycle (scale=%s, override with -minutes)", minutes, e.Scale)
	fig.Note("hybrid uses the paper's %v static limit (p90 derivation would materialize the workload)", core.DefaultStaticLimit)
	return fig, nil
}

// horizonWindows returns ceil(horizon/width): how many windows a run of
// that many minutes spans. Completions can land past the horizon (work
// admitted near the end drains after it), so this is a floor the sink
// may exceed, never a truncation.
func horizonWindows(minutes int, width time.Duration) int {
	horizon := time.Duration(minutes) * time.Minute
	return int((horizon + width - 1) / width)
}

// windowTrack renders a windowed sink's per-window p99 turnaround and
// cost as a compact note line — how latency and the bill track the swing.
func windowTrack(win *metrics.WindowedAccumulator) string {
	var p99s, costs []string
	for i := 0; i < win.Windows(); i++ {
		w := win.Window(i)
		if w.Completed() == 0 {
			p99s = append(p99s, "-")
			costs = append(costs, "-")
			continue
		}
		v, err := w.P99(metrics.Turnaround)
		if err != nil {
			p99s = append(p99s, "-")
		} else {
			p99s = append(p99s, fmtSec(v))
		}
		costs = append(costs, fmtUSD(w.Cost()))
	}
	return fmt.Sprintf("p99_turn_s: %s | cost_usd: %s",
		strings.Join(p99s, " "), strings.Join(costs, " "))
}

// RunStreamed executes one policy over the source on a single machine,
// run as a one-server fleet on the lockstep engine: lazy admission in
// watermark steps, task recycling, and a fixed-memory windowed sink
// (width from diurnalWindow). It returns the sink, the makespan, and the
// enclave's delegation stats (fired vs elided agent ticks).
func (e *Env) RunStreamed(policy func() ghost.Policy, src workload.Source) (*metrics.WindowedAccumulator, time.Duration, ghost.Stats, error) {
	rep, err := cluster.SimulateShardedWindowed(cluster.Config{
		Servers:  1,
		Dispatch: cluster.DispatchRoundRobin,
		Kernel:   simkern.DefaultConfig(e.Cores),
		Policy:   policy,
	}, src, e.Tariff, e.diurnalWindow())
	if err != nil {
		return nil, 0, ghost.Stats{}, err
	}
	return rep.Windowed, rep.Makespan, rep.Stats, nil
}

// tickNote renders fired vs elided agent-tick counters: how much of the
// naive every-boundary pump the tick-elision kernel skipped (DESIGN.md §9).
func tickNote(fired, elided int64) string {
	total := fired + elided
	if total == 0 {
		return "none (tickless policy)"
	}
	return fmt.Sprintf("fired=%d elided=%d (%.1f%% of boundaries skipped)",
		fired, elided, 100*float64(elided)/float64(total))
}
