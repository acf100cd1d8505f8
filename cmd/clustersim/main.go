// Command clustersim simulates a fleet of servers fronted by a dispatch
// policy — the cluster-scale counterpart to hybridsim. Flags in, aligned
// table (and optionally CSV) out.
//
// Usage:
//
//	clustersim -servers 8 -cores 8 -dispatch least-loaded -sched hybrid
//	clustersim -servers 16 -dispatch join-idle-queue -minutes 2 -n 4000
//	clustersim -compare -servers 8            # sweep all dispatch policies
//	clustersim -compare -csv results.csv      # machine-readable output
//
// -autoscale switches to the elastic fleet (SimulateAutoscaled): -servers
// becomes the cap, and the fleet grows from -as-min toward it under the
// chosen -scale-policy, with per-window latency/cost rows and the billed
// server-seconds ledger:
//
//	clustersim -autoscale -as-min 1 -servers 6 -scale-policy queue-depth
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/faassched/faassched"
	"github.com/faassched/faassched/internal/cliutil"
	"github.com/faassched/faassched/internal/experiments"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	var (
		servers  = fs.Int("servers", 4, "fleet size")
		cores    = fs.Int("cores", 8, "cores per server")
		dispatch = fs.String("dispatch", string(faassched.DispatchLeastLoaded),
			fmt.Sprintf("dispatch policy %v", faassched.Dispatches()))
		sched     = fs.String("sched", string(faassched.SchedulerHybrid), fmt.Sprintf("per-server scheduler %v", faassched.Schedulers()))
		minutes   = fs.Int("minutes", 2, "trace minutes to replay (synthetic workload)")
		n         = fs.Int("n", 0, "stride-sample the workload to ~n invocations (0 = all)")
		seed      = fs.Int64("seed", 1, "workload and dispatch seed")
		limit     = fs.Duration("limit", 0, "hybrid static time limit (default 1.633s)")
		fifoCores = fs.Int("fifo-cores", 0, "hybrid FIFO group size per server (default half)")
		compare   = fs.Bool("compare", false, "sweep every dispatch policy instead of running one")
		file      = fs.String("workload", "", "replay a workload file instead of synthesizing")
		csvPath   = fs.String("csv", "", "also write the result table as CSV to this path")
		shards    = fs.Int("shards", 0, "partition the fleet into this many shards, one worker goroutine each (0 = 4×GOMAXPROCS)")

		shardMode   = fs.Bool("sharded", false, "run the sharded windowed replay (lockstep routing, O(shards×windows) memory) instead of the exact fixed fleet")
		shardWindow = fs.Duration("shard-window", time.Hour, "sharded replay: per-window metrics width")

		asMode   = fs.Bool("autoscale", false, "run an elastic fleet instead of a fixed one (-servers becomes the cap)")
		asMin    = fs.Int("as-min", 1, "autoscale: provisioned fleet floor")
		asPolicy = fs.String("scale-policy", string(faassched.ScaleTargetUtilization),
			fmt.Sprintf("autoscale: scaling policy %v", faassched.ScalePolicies()))
		asSpinUp = fs.Duration("as-spinup", 0, "autoscale: server spin-up latency (0 = default 30s)")
		asWindow = fs.Duration("as-window", 10*time.Minute, "autoscale: per-window metrics width")

		csLatency = fs.Duration("coldstart-latency", 0, "per-function cold-start latency (0 = model disabled)")
		keepAlive = fs.Duration("keepalive", faassched.DefaultKeepAlive, "warm-instance keep-alive TTL (<= 0 = never evict; needs -coldstart-latency)")
		csPoolMB  = fs.Int("coldstart-pool-mb", 0, "per-server warm-pool memory bound in MB (0 = unbounded)")
		warmFirst = fs.Bool("warm-first", false, "prefer servers holding a warm instance, fall back to -dispatch for cold placement")
	)
	obsf := cliutil.RegisterObs(fs)
	faultf := cliutil.RegisterFaults(fs)
	if done, err := cliutil.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	// Validate arguments up front, faasbench-style, so scripts fail with
	// the full list of valid values before any simulation runs.
	if *csLatency < 0 {
		return fmt.Errorf("-coldstart-latency %v must be >= 0 (0 = disabled)", *csLatency)
	}
	if *csPoolMB < 0 {
		return fmt.Errorf("-coldstart-pool-mb %d must be >= 0 (0 = unbounded)", *csPoolMB)
	}
	if (*warmFirst || *csPoolMB > 0) && *csLatency == 0 {
		return fmt.Errorf("-warm-first and -coldstart-pool-mb need the cold-start model: set -coldstart-latency > 0")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be >= 0 (0 = 4×GOMAXPROCS)", *shards)
	}
	if *shardMode {
		if *asMode {
			return fmt.Errorf("-sharded and -autoscale are mutually exclusive")
		}
		if *shardWindow <= 0 {
			return fmt.Errorf("-shard-window %v must be positive", *shardWindow)
		}
	}
	if err := obsf.Validate(); err != nil {
		return err
	}
	if err := faultf.Validate(); err != nil {
		return err
	}
	faultCfg := faultf.Config(*seed)
	if *asMode && faultCfg.StragglerMTBF > 0 {
		return fmt.Errorf("-fault-straggler-mtbf is not supported with -autoscale (terminal crash/timeout/retry only)")
	}
	if *compare && (obsf.TraceOut != "" || obsf.ReportOut != "") {
		return fmt.Errorf("-trace-out/-run-report describe a single run: drop -compare")
	}
	coldStart := faassched.ColdStartOptions{
		Latency:   *csLatency,
		KeepAlive: *keepAlive,
		PoolMemMB: *csPoolMB,
		WarmFirst: *warmFirst,
	}
	if *asMode {
		known := false
		for _, p := range faassched.ScalePolicies() {
			if faassched.ScalePolicy(*asPolicy) == p {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown -scale-policy %q (have %v)", *asPolicy, faassched.ScalePolicies())
		}
		if *asMin < 1 || *asMin > *servers {
			return fmt.Errorf("-as-min %d out of [1, -servers %d]", *asMin, *servers)
		}
		if *asSpinUp < 0 {
			return fmt.Errorf("-as-spinup %v must be >= 0 (0 = default)", *asSpinUp)
		}
		if *asWindow <= 0 {
			return fmt.Errorf("-as-window %v must be positive", *asWindow)
		}
	}

	spec := faassched.WorkloadSpec{
		Seed:           *seed,
		Minutes:        *minutes,
		MaxInvocations: *n,
	}
	if *shardMode {
		// The sharded replay never materializes the workload: a synthetic
		// spec streams straight from the trace, so provider-scale windows
		// (×10 volume, multi-day horizons) stay O(shards × windows).
		var src faassched.Source
		if *file == "" {
			var err error
			src, err = faassched.BuildWorkloadSource(spec)
			if err != nil {
				return err
			}
		} else {
			invs, err := faassched.LoadWorkload(*file, spec)
			if err != nil {
				return err
			}
			src = faassched.SliceSource(invs)
		}
		rig, err := obsf.Start("clustersim", os.Stderr, 0)
		if err != nil {
			return err
		}
		if err := runSharded(stdout, src, shardedArgs{
			servers: *servers, cores: *cores,
			dispatch: faassched.Dispatch(*dispatch), sched: faassched.Scheduler(*sched),
			seed: *seed, fifoCores: *fifoCores, limit: *limit,
			shards: *shards, window: *shardWindow,
			csvPath: *csvPath, coldStart: coldStart, faults: faultCfg, rig: rig,
		}); err != nil {
			return err
		}
		return rig.Finish()
	}

	invs, err := faassched.LoadWorkload(*file, spec)
	if err != nil {
		return err
	}
	span := invs[len(invs)-1].Arrival
	fmt.Fprintf(stdout, "workload: %d invocations spanning %s, total demand %s\n",
		len(invs), span.Round(time.Second), workload.TotalWork(invs).Round(time.Second))
	rig, err := obsf.Start("clustersim", os.Stderr, span)
	if err != nil {
		return err
	}

	if *asMode {
		if err := runAutoscale(stdout, invs, autoscaleArgs{
			min: *asMin, max: *servers, cores: *cores,
			dispatch: faassched.Dispatch(*dispatch), sched: faassched.Scheduler(*sched),
			policy: faassched.ScalePolicy(*asPolicy), spinUp: *asSpinUp, window: *asWindow,
			seed: *seed, fifoCores: *fifoCores, limit: *limit, csvPath: *csvPath,
			coldStart: coldStart, faults: faultCfg, rig: rig,
		}); err != nil {
			return err
		}
		return rig.Finish()
	}

	dispatches := []faassched.Dispatch{faassched.Dispatch(*dispatch)}
	if *compare {
		dispatches = faassched.Dispatches()
	}

	fig := experiments.NewFigure("clustersim",
		fmt.Sprintf("%d×%d-core fleet, %s per server", *servers, *cores, *sched),
		"dispatch", "p50_response_ms", "p99_response_ms", "p99_turnaround_ms",
		"cost_usd", "imbalance", "makespan_s")
	for _, d := range dispatches {
		start := time.Now()
		res, err := faassched.SimulateCluster(faassched.ClusterOptions{
			Servers:        *servers,
			CoresPerServer: *cores,
			Dispatch:       d,
			Scheduler:      faassched.Scheduler(*sched),
			Seed:           *seed,
			FIFOCores:      *fifoCores,
			TimeLimit:      *limit,
			ColdStart:      coldStart,
			Faults:         faultCfg,
			Shards:         *shards,
			Obs:            rig.Obs,
		}, invs)
		if err != nil {
			return err
		}
		fillReport(rig, "fleet", res.Makespan, len(invs))
		resp, err := res.CDF(faassched.Response)
		if err != nil {
			return err
		}
		turn, err := res.CDF(faassched.Turnaround)
		if err != nil {
			return err
		}
		fig.AddRow(string(d),
			fmt.Sprintf("%.1f", resp.Quantile(0.5)),
			fmt.Sprintf("%.1f", resp.Quantile(0.99)),
			fmt.Sprintf("%.1f", turn.Quantile(0.99)),
			fmt.Sprintf("%.6f", res.CostUSD()),
			fmt.Sprintf("%.3f", res.ImbalanceRatio()),
			fmt.Sprintf("%.1f", res.Makespan.Seconds()),
		)
		fmt.Fprintf(stdout, "# %-16s simulated in %s | %s\n", d, time.Since(start).Round(time.Millisecond), res.Summary())
		if coldStart.Enabled() {
			n, done := res.Set.ColdStarts(), len(res.Set.Completed())
			fmt.Fprintf(stdout, "# cold starts: %d of %d completed (%.2f%%)\n",
				n, done, 100*float64(n)/float64(max(done, 1)))
		}
		if faultCfg.Enabled() {
			fmt.Fprintf(stdout, "# faults: crashes=%d kills=%d retries=%d giveups=%d stragglers=%d | goodput %.2f%% retry-amp %.3f wasted-cpu %s\n",
				res.Faults.Crashes, res.Faults.Kills, res.Faults.Retries,
				res.Faults.GiveUps, res.Faults.StragglerWindows,
				100*res.Set.Goodput(), res.Set.RetryAmplification(),
				res.Set.WastedCPU().Round(time.Millisecond))
		}
		if !*compare {
			printPerServer(stdout, res)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, fig.Text())
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(fig.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	return rig.Finish()
}

// fillReport stamps the run report's simulation-shape fields; kernel
// events come from the counter registry so every mode reports them the
// same way.
func fillReport(rig *cliutil.ObsRig, mode string, makespan time.Duration, invocations int) {
	if rig.Report == nil {
		return
	}
	rig.Report.Mode = mode
	rig.Report.SimSeconds = makespan.Seconds()
	rig.Report.Invocations = invocations
	if reg := rig.Obs.Registry(); reg != nil {
		rig.Report.Events = uint64(reg.Counter(obs.CKernEvents).Value())
	}
}

// autoscaleArgs bundles the resolved -autoscale flags.
type autoscaleArgs struct {
	min, max, cores int
	dispatch        faassched.Dispatch
	sched           faassched.Scheduler
	policy          faassched.ScalePolicy
	spinUp, window  time.Duration
	seed            int64
	fifoCores       int
	limit           time.Duration
	csvPath         string
	coldStart       faassched.ColdStartOptions
	faults          faassched.FaultOptions
	rig             *cliutil.ObsRig
}

// runAutoscale is the one-off elastic-fleet entry point (ROADMAP item):
// SimulateAutoscaled outside the experiment harness, with per-window rows
// and the fleet timeline.
func runAutoscale(stdout io.Writer, invs []faassched.Invocation, a autoscaleArgs) error {
	start := time.Now()
	stats, err := faassched.SimulateAutoscaled(faassched.AutoscaleOptions{
		MinServers:     a.min,
		MaxServers:     a.max,
		CoresPerServer: a.cores,
		Dispatch:       a.dispatch,
		Scheduler:      a.sched,
		Seed:           a.seed,
		FIFOCores:      a.fifoCores,
		TimeLimit:      a.limit,
		ScalePolicy:    a.policy,
		SpinUp:         a.spinUp,
		MetricsWindow:  a.window,
		ColdStart:      a.coldStart,
		Faults:         a.faults,
		Obs:            a.rig.Obs,
	}, faassched.SliceSource(invs))
	if err != nil {
		return err
	}
	fillReport(a.rig, "autoscale", stats.Makespan, stats.Completed+stats.Failed)
	fmt.Fprintf(stdout, "# autoscaled %d..%d×%d-core fleet simulated in %s\n# %s\n",
		a.min, a.max, a.cores, time.Since(start).Round(time.Millisecond), stats.Summary())
	fmt.Fprintf(stdout, "# fleet timeline: %s\n", stats.Timeline(20))

	fig := experiments.NewFigure("clustersim-autoscale",
		fmt.Sprintf("%d..%d×%d-core elastic fleet, %s per server, %s scaling", a.min, a.max, a.cores, a.sched, stats.ScalePolicy),
		"window", "n", "p99_resp_ms", "p99_turn_s", "exec_cost_usd", "server_s")
	row := func(label string, acc *metrics.Accumulator, serverSeconds float64) {
		resp, turn := "-", "-"
		if acc.Completed() > 0 {
			if v, err := acc.Quantile(faassched.Response, 0.99); err == nil {
				resp = fmt.Sprintf("%.1f", v)
			}
			if v, err := acc.P99(faassched.Turnaround); err == nil {
				turn = fmt.Sprintf("%.2f", v)
			}
		}
		fig.AddRow(label,
			fmt.Sprintf("%d", acc.Completed()), resp, turn,
			fmt.Sprintf("%.6f", acc.Cost()), fmt.Sprintf("%.0f", serverSeconds))
	}
	for w := 0; w < stats.WindowCount(); w++ {
		lo, hi := time.Duration(w)*stats.WindowWidth(), time.Duration(w+1)*stats.WindowWidth()
		row(fmt.Sprintf("w%d", w), stats.Window(w), stats.ServerSecondsIn(lo, hi))
	}
	row("all", stats.Total(), stats.ServerSeconds)
	fig.Note("fleet peak=%d mean=%.2f launched=%d drained=%d | exec=$%.6f infra=$%.6f (%.0f server-s)",
		stats.PeakServers, stats.MeanServers(), stats.Launched, stats.Drained,
		stats.CostUSD, stats.InfraCostUSD, stats.ServerSeconds)
	if a.coldStart.Enabled() {
		fig.Note("cold starts: %d (retiring a server destroys its warm pool)", stats.ColdStarts)
	}
	if a.faults.Enabled() {
		fig.Note("faults: crashed=%d kills=%d retries=%d giveups=%d | goodput %.2f%% (crashed servers bill until the crash instant)",
			stats.Crashed, stats.Faults.Kills, stats.Faults.Retries,
			stats.Faults.GiveUps, 100*stats.Total().Goodput())
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, fig.Text())
	if a.csvPath != "" {
		if err := os.WriteFile(a.csvPath, []byte(fig.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", a.csvPath)
	}
	return nil
}

// shardedArgs bundles the resolved -sharded flags.
type shardedArgs struct {
	servers, cores int
	dispatch       faassched.Dispatch
	sched          faassched.Scheduler
	seed           int64
	fifoCores      int
	limit          time.Duration
	shards         int
	window         time.Duration
	csvPath        string
	coldStart      faassched.ColdStartOptions
	faults         faassched.FaultOptions
	rig            *cliutil.ObsRig
}

// runSharded is the sharded windowed replay entry point: lockstep
// routing + simulation over a bounded shard pool, per-window rows out.
func runSharded(stdout io.Writer, src faassched.Source, a shardedArgs) error {
	start := time.Now()
	stats, err := faassched.SimulateShardedReplay(faassched.ClusterOptions{
		Servers:        a.servers,
		CoresPerServer: a.cores,
		Dispatch:       a.dispatch,
		Scheduler:      a.sched,
		Seed:           a.seed,
		FIFOCores:      a.fifoCores,
		TimeLimit:      a.limit,
		Shards:         a.shards,
		MetricsWindow:  a.window,
		ColdStart:      a.coldStart,
		Faults:         a.faults,
		Obs:            a.rig.Obs,
	}, src)
	if err != nil {
		return err
	}
	fillReport(a.rig, "sharded", stats.Makespan, stats.Invocations)
	if a.rig.Report != nil {
		a.rig.Report.Events = stats.KernelEvents
		a.rig.Report.PerShard = stats.PerShard
	}
	fmt.Fprintf(stdout, "# sharded %d×%d-core fleet (%d shards) replayed %d invocations in %s\n# %s\n",
		stats.Servers, a.cores, stats.Shards, stats.Invocations,
		time.Since(start).Round(time.Millisecond), stats.Summary())

	fig := experiments.NewFigure("clustersim-sharded",
		fmt.Sprintf("%d×%d-core sharded fleet, %s per server, %s dispatch", stats.Servers, a.cores, a.sched, stats.Dispatch),
		"window", "n", "p99_resp_ms", "p99_turn_s", "exec_cost_usd")
	row := func(label string, acc *metrics.Accumulator) {
		resp, turn := "-", "-"
		if acc.Completed() > 0 {
			if v, err := acc.Quantile(faassched.Response, 0.99); err == nil {
				resp = fmt.Sprintf("%.1f", v)
			}
			if v, err := acc.P99(faassched.Turnaround); err == nil {
				turn = fmt.Sprintf("%.2f", v)
			}
		}
		fig.AddRow(label,
			fmt.Sprintf("%d", acc.Completed()), resp, turn,
			fmt.Sprintf("%.6f", acc.Cost()))
	}
	for w := 0; w < stats.WindowCount(); w++ {
		row(fmt.Sprintf("w%d", w), stats.Window(w))
	}
	row("all", stats.Total())
	fig.Note("makespan %s | agent ticks fired=%d elided=%d", stats.Makespan.Round(time.Millisecond), stats.Ghost.Ticks, stats.Ghost.TicksElided)
	fig.Note("ghost msgs=%d commits=%d fails=%d migrations=%d | kernel events=%d",
		stats.Ghost.Delivered, stats.Ghost.Commits, stats.Ghost.Failed,
		stats.Ghost.Migrations, stats.KernelEvents)
	if a.faults.Enabled() {
		fig.Note("faults: crashes=%d kills=%d retries=%d giveups=%d stragglers=%d | goodput %.2f%%",
			stats.Faults.Crashes, stats.Faults.Kills, stats.Faults.Retries,
			stats.Faults.GiveUps, stats.Faults.StragglerWindows,
			100*stats.Total().Goodput())
	}
	for _, sh := range stats.PerShard {
		fig.Note("shard %d: servers=%d invocations=%d events=%d (%.1f%%)",
			sh.Shard, sh.Servers, sh.Invocations, sh.Events,
			100*float64(sh.Events)/float64(max(stats.KernelEvents, 1)))
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, fig.Text())
	if a.csvPath != "" {
		if err := os.WriteFile(a.csvPath, []byte(fig.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", a.csvPath)
	}
	return nil
}

// printPerServer renders the per-server breakdown of one fleet run.
func printPerServer(w io.Writer, res *faassched.ClusterResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-8s %-8s %-14s %s\n", "server", "invs", "busy", "makespan")
	for _, sr := range res.PerServer {
		fmt.Fprintf(&b, "  %-8d %-8d %-14s %s\n",
			sr.Server, sr.Invocations,
			sr.Set.TotalExecution().Round(time.Millisecond),
			sr.Makespan.Round(time.Millisecond))
	}
	fmt.Fprint(w, b.String())
}
