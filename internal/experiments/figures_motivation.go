package experiments

import (
	"fmt"

	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/workload"
)

// Fig1 reproduces Figure 1: the cost of the W2 workload under FIFO vs CFS
// across memory sizes, using AWS Lambda pricing. The paper's headline:
// CFS costs >10× FIFO.
func Fig1(e *Env) (*Figure, error) {
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	fifoRun, err := e.RunPolicy(e.Baselines()["fifo"](), invs, false)
	if err != nil {
		return nil, err
	}
	cfsRun, err := e.RunPolicy(e.Baselines()["cfs"](), invs, false)
	if err != nil {
		return nil, err
	}
	fig := NewFigure("fig1", "Cost of FIFO vs CFS by memory size (W2, AWS Lambda pricing)",
		"mem_mb", "fifo_usd", "cfs_usd", "ratio")
	var lastRatio float64
	for _, mem := range pricing.StandardMemorySizesMB {
		f := fifoRun.Set.CostAtUniformMemory(e.Tariff, mem)
		c := cfsRun.Set.CostAtUniformMemory(e.Tariff, mem)
		lastRatio = c / f
		fig.AddRow(fmt.Sprintf("%d", mem), fmtUSD(f), fmtUSD(c), fmt.Sprintf("%.2f", lastRatio))
	}
	fig.Note("paper reports CFS >10x FIFO; measured ratio %.1fx at the largest size", lastRatio)
	return fig, nil
}

// Fig2 reproduces Figure 2: the trace characterization — the duration CDF
// (left) and the bursty per-minute arrival pattern (right).
func Fig2(e *Env) (*Figure, error) {
	tr, err := e.Trace()
	if err != nil {
		return nil, err
	}
	fig := NewFigure("fig2", "Azure-calibrated trace: duration CDF and arrival burstiness",
		"part", "x", "y")
	cdf, err := tr.DurationCDF(1 << 20)
	if err != nil {
		return nil, err
	}
	for _, p := range cdf.Curve(cdfPoints) {
		fig.AddRow("duration_cdf_ms", fmt.Sprintf("%.2f", p.X), fmt.Sprintf("%.4f", p.Y))
	}
	for m, count := range tr.ArrivalSeries() {
		fig.AddRow("arrivals_per_minute", fmt.Sprintf("%d", m), fmt.Sprintf("%d", count))
	}
	fig.Note("P(duration < 1s) = %.3f (paper cites ~80%%)", cdf.At(1000))
	return fig, nil
}

// Fig4 reproduces Figure 4: execution/response/turnaround CDFs under FIFO
// vs CFS — Observation 2's trade-off.
func Fig4(e *Env) (*Figure, error) {
	return e.metricComparison("fig4",
		"FIFO vs CFS metric CDFs (W2)",
		[]string{"fifo", "cfs"})
}

// Fig5 reproduces Figure 5: plain FIFO vs FIFO with a 100 ms preemption
// quantum — Observation 3 (preemption buys response time, costs execution
// time).
func Fig5(e *Env) (*Figure, error) {
	return e.metricComparison("fig5",
		"FIFO vs FIFO+100ms preemption metric CDFs (W2)",
		[]string{"fifo", "fifo+100ms"})
}

// Fig6 reproduces Figure 6: FIFO vs the hybrid FIFO+CFS split —
// Observation 4 (the hybrid improves every metric over FIFO).
func Fig6(e *Env) (*Figure, error) {
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	fig := NewFigure("fig6", "FIFO vs hybrid FIFO+CFS metric CDFs (W2)",
		"scheduler", "metric", "x_ms", "cum_frac")
	fifoRun, err := e.RunPolicy(e.Baselines()["fifo"](), invs, false)
	if err != nil {
		return nil, err
	}
	if err := addMetricCDFs(fig, "fifo", fifoRun.Set); err != nil {
		return nil, err
	}
	hybridRun, err := e.RunPolicy(newHybrid(e.HybridConfig(invs)), invs, false)
	if err != nil {
		return nil, err
	}
	if err := addMetricCDFs(fig, "hybrid", hybridRun.Set); err != nil {
		return nil, err
	}
	fig.Note("hybrid split %d/%d cores, static limit %s (p90 of workload durations)",
		e.Cores/2, e.Cores-e.Cores/2, e.P90Limit(invs))
	return fig, nil
}

// Fig10 reproduces Figure 10: the sampled workload's duration distribution
// against the full trace's — the representativeness argument — quantified
// with the Kolmogorov-Smirnov distance.
func Fig10(e *Env) (*Figure, error) {
	tr, err := e.Trace()
	if err != nil {
		return nil, err
	}
	full, err := tr.DurationCDF(1 << 20)
	if err != nil {
		return nil, err
	}
	window, err := tr.DurationCDFWindow(0, 2, 1<<20)
	if err != nil {
		return nil, err
	}
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	sampled, err := workload.DurationCDF(invs)
	if err != nil {
		return nil, err
	}
	fig := NewFigure("fig10", "Full-trace vs sampled-workload duration CDFs",
		"series", "duration_ms", "cum_frac")
	for _, s := range []struct {
		name string
		cdf  stats.CDF
	}{
		{"full_trace", full},
		{"sampled_window", window},
		{"sampled_bucketed", sampled},
	} {
		for _, p := range s.cdf.Curve(cdfPoints) {
			fig.AddRow(s.name, fmt.Sprintf("%.2f", p.X), fmt.Sprintf("%.4f", p.Y))
		}
	}
	fig.Note("KS(window, full) = %.4f — the curves overlap as in the paper", stats.KSDistance(window, full))
	fig.Note("KS(bucketed, full) = %.4f — bounded by one phi-ladder step", stats.KSDistance(sampled, full))
	return fig, nil
}

// metricComparison runs the named baseline schedulers on W2 and renders
// all three metric CDFs per scheduler.
func (e *Env) metricComparison(id, title string, names []string) (*Figure, error) {
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	fig := NewFigure(id, title, "scheduler", "metric", "x_ms", "cum_frac")
	factories := e.Baselines()
	for _, name := range names {
		factory, ok := factories[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scheduler %q", name)
		}
		out, err := e.RunPolicy(factory(), invs, false)
		if err != nil {
			return nil, err
		}
		if err := addMetricCDFs(fig, name, out.Set); err != nil {
			return nil, err
		}
	}
	return fig, nil
}
