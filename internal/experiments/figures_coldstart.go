package experiments

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// coldTTLs resolves the keep-alive sweep: the Env override pins a single
// point, otherwise a log-ish ladder from "barely keeps anything" to
// "never evict" (KeepAlive 0 = infinite, rendered "inf").
func (e *Env) coldTTLs() []time.Duration {
	if e.ColdKeepAlive != 0 {
		return []time.Duration{e.ColdKeepAlive}
	}
	return []time.Duration{time.Second, 10 * time.Second, time.Minute, 0}
}

// fmtTTL renders a keep-alive for the ttl_s column.
func fmtTTL(ttl time.Duration) string {
	if ttl <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", ttl.Seconds())
}

// ExtColdStart puts warm-start economics under the paper's cost lens: the
// main two-minute workload on a fixed fleet, with the warm-instance model
// enabled — every invocation landing on a server without an idle warm
// instance of its function pays the spin-up latency as extra CPU demand,
// so cold starts inflate both billed execution time and response tails.
// The sweep crosses keep-alive TTL × per-server scheduler × dispatch
// (the baseline least-loaded router against its warm-first wrapper that
// chases warm instances before falling back). The trend the table shows:
// cold-start rate falls as the TTL rises, warm-first dispatch converts
// that warmth into fewer cold starts at equal fleet size, and both show
// up directly as dollars.
func ExtColdStart(e *Env) (*Figure, error) {
	invs, err := e.W2()
	if err != nil {
		return nil, err
	}
	coresPer, servers := 4, 2
	if e.Scale != ScaleQuick {
		coresPer, servers = 8, 8
	}
	latency := e.ColdStartLatency
	if latency <= 0 {
		latency = cluster.DefaultColdStartLatency
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
	dispatches := []struct {
		name      string
		warmFirst bool
	}{
		{"least-loaded", false},
		{"warm-first", true},
	}

	fig := NewFigure("ext-coldstart",
		"keep-alive TTL × scheduler × dispatch under the cold-start model: cold-start rate, warm hits, cost (beyond the paper)",
		"ttl_s", "dispatch", "sched", "cold_n", "cold_rate_pct", "warm_hit_pct",
		"cold_lat_s", "p99_response_s", "cost_usd")
	// Flatten the TTL × dispatch × scheduler grid and fan the independent
	// fleet replays across the sweep pool; collation preserves the nested
	// loop's row order (TTL-major, scheduler-minor).
	ttls := e.coldTTLs()
	type gridCell struct {
		ttl  time.Duration
		d, s int
	}
	grid := make([]gridCell, 0, len(ttls)*len(dispatches)*len(schedulers))
	for _, ttl := range ttls {
		for d := range dispatches {
			for s := range schedulers {
				grid = append(grid, gridCell{ttl: ttl, d: d, s: s})
			}
		}
	}
	err = e.Sweep(fig, len(grid), func(i int, c *Cell) error {
		ttl, d, s := grid[i].ttl, dispatches[grid[i].d], schedulers[grid[i].s]
		res, err := cluster.Simulate(cluster.Config{
			Servers:  servers,
			Dispatch: cluster.DispatchLeastLoaded,
			Seed:     e.Seed,
			Kernel:   simkern.DefaultConfig(coresPer),
			Policy:   s.factory,
			ColdStart: cluster.ColdStartConfig{
				Latency:   latency,
				KeepAlive: ttl,
				PoolMemMB: e.ColdPoolMB,
				WarmFirst: d.warmFirst,
			},
		}, workload.SliceSource(invs))
		if err != nil {
			return fmt.Errorf("ttl=%s×%s×%s: %w", fmtTTL(ttl), d.name, s.name, err)
		}
		completed := 0
		var coldLat time.Duration
		for _, r := range res.Set.Records {
			if r.Failed {
				continue
			}
			completed++
			coldLat += r.ColdStart
		}
		coldN := res.Set.ColdStarts()
		rate := 0.0
		if completed > 0 {
			rate = float64(coldN) / float64(completed)
		}
		p99Resp, err := res.Set.P99(metrics.Response)
		if err != nil {
			return err
		}
		c.AddRow(
			fmtTTL(ttl),
			d.name,
			s.name,
			fmt.Sprintf("%d", coldN),
			fmt.Sprintf("%.2f", 100*rate),
			fmt.Sprintf("%.2f", 100*(1-rate)),
			fmtSec(coldLat.Seconds()),
			fmtSec(p99Resp),
			fmtUSD(res.Set.Cost(e.Tariff)),
		)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Note("%d invocations per cell, %d servers × %d cores, %s cold-start latency; warm pool unbounded unless -coldstart-pool-mb is set",
		len(invs), servers, coresPer, latency)
	fig.Note("cold-start latency is modeled as extra CPU demand on the instance's first run, so it is billed (cost) and queues behind other work (p99)")
	fig.Note("warm-first wraps least-loaded: prefer servers holding an idle warm instance of the function, fall back to least-loaded for cold placement")
	return fig, nil
}
