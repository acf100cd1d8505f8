package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/faassched/faassched"
	"github.com/faassched/faassched/internal/autoscale"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

// Every fleet in the benchmark uses 8-core servers and 10-minute metric
// windows.
const (
	coresPerServer = 8
	metricsWindow  = 10 * time.Minute
	// populationSeed fixes the synthesized trace, and the crash timeline,
	// to the repository's calibrated ones. At 2,000 functions a fresh
	// trace seed moves mean work per invocation by up to ±20% and can put
	// 8× spike minutes into a window, which at a fixed fleet size changes
	// replay cost twentyfold; the benchmark's own seed therefore only picks
	// and orders this trace's minutes (see buildTrace).
	populationSeed = 1
)

// executor names the fleet engine a workload replays through.
type executor string

const (
	execSharded executor = "sharded" // SimulateShardedReplay: lockstep watermark engine
	execFlat    executor = "flat"    // SimulateCluster: route everything, then simulate each server
	execElastic executor = "elastic" // SimulateAutoscaled: goroutine-per-server elastic fleet
)

// spec is one benchmark workload: a fleet configuration and the slice of
// the calibrated trace it replays. Trace volume is ×scale of the
// Azure-calibrated rate (trace.Config.RateScale with Downscale 1).
type spec struct {
	name     string
	exec     executor
	servers  int // fixed fleet size, or the elastic cap
	minimum  int // elastic floor
	scale    float64
	minutes  int
	dispatch faassched.Dispatch
	sched    faassched.Scheduler
	warm     bool          // cold-start model: 250 ms cold starts, default keep-alive
	crashes  time.Duration // per-server mean time between crashes; 0 disables faults
}

// workloads is the benchmark's workload set, in run order. The sizes hold
// one replay to about two seconds on a 2-core host, so a 30-second
// measurement holds seven to seventeen timed passes. README.md records why each
// was chosen, which layers it stresses, and how each size was measured
// against a longer one.
var workloads = []spec{
	// Provider-scale throughput: a router→shard channel send per
	// invocation, load-index routing, the hybrid at ~70% utilization.
	{
		name: "fleet-hybrid", exec: execSharded, servers: 60, scale: 3, minutes: 20,
		dispatch: faassched.DispatchLeastLoaded, sched: faassched.SchedulerHybrid,
	},
	// Routing costs almost nothing, so the kernel, ghost and CFS layers
	// dominate; the exact record dataflow holds O(invocations) memory.
	{
		name: "fleet-cfs-exact", exec: execFlat, servers: 40, scale: 2, minutes: 20,
		dispatch: faassched.DispatchRoundRobin, sched: faassched.SchedulerCFS,
	},
	// A 10,000-server fleet under light load: per-server fixed cost and
	// load-index depth, not per-invocation kernel work.
	{
		name: "idle-fleet-10k", exec: execSharded, servers: 10000, scale: 1, minutes: 60,
		dispatch: faassched.DispatchLeastLoaded, sched: faassched.SchedulerHybrid,
	},
	// The same router and kernel used differently: warm-pool booking,
	// crash kills with retries and cold replacements, and the
	// goroutine-per-server elastic executor. The floor covers demand, so
	// crashes, not scaling transients, drive the fleet's churn.
	{
		name: "elastic-warm-crash", exec: execElastic, servers: 48, minimum: 24, scale: 1, minutes: 60,
		dispatch: faassched.DispatchLeastLoaded, sched: faassched.SchedulerHybrid,
		warm: true, crashes: 2 * time.Hour,
	},
}

// lookup returns the named workload, or an error listing the valid names.
func lookup(name string) (spec, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown -workload %q (have %s)", name, strings.Join(names, ", "))
}

// buildTrace synthesizes one minute more than the workload replays, at
// populationSeed, and keeps the minutes a seeded draw picks: all but one,
// in a seeded order. Each minute keeps exactly its calibrated invocations;
// seeds differ in which minute is left out and in the order of the rest.
func (w spec) buildTrace(seed int64) (*trace.Trace, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = populationSeed
	cfg.Minutes = w.minutes + 1
	cfg.RateScale = w.scale
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(cfg.Minutes)[:w.minutes]
	for i := range tr.Rows {
		counts := tr.Rows[i].Counts
		kept := make([]int, w.minutes)
		for m, from := range order {
			kept[m] = counts[from]
		}
		tr.Rows[i].Counts = kept
	}
	tr.Minutes = w.minutes
	return tr, nil
}

// input is a set-up workload, ready to replay.
type input struct {
	src  workload.Source
	invs []workload.Invocation // flat executor only
	// invocations is the trace's invocation count, which with Downscale 1
	// is exactly what src yields.
	invocations int
	// materialize is the time spent draining src into invs (flat only): on
	// the flat path the source layer is paid during set-up.
	materialize time.Duration
}

// setup synthesizes the trace and opens the source; the flat executor
// additionally materializes it, since SimulateCluster takes a slice.
func (w spec) setup(seed int64) (*input, error) {
	tr, err := w.buildTrace(seed)
	if err != nil {
		return nil, err
	}
	src, err := workload.Builder{Downscale: 1}.Stream(tr, 0, w.minutes)
	if err != nil {
		return nil, err
	}
	in := &input{src: src, invocations: tr.TotalInvocations()}
	if w.exec == execFlat {
		start := time.Now()
		in.invs = workload.Materialize(src)
		in.materialize = time.Since(start)
		if len(in.invs) == 0 {
			return nil, fmt.Errorf("%s: trace window yields no invocations", w.name)
		}
	}
	return in, nil
}

func (w spec) clusterOptions(seed int64) faassched.ClusterOptions {
	return faassched.ClusterOptions{
		Servers:        w.servers,
		CoresPerServer: coresPerServer,
		Dispatch:       w.dispatch,
		Scheduler:      w.sched,
		Seed:           seed,
		MetricsWindow:  metricsWindow,
	}
}

func (w spec) coldStart() faassched.ColdStartOptions {
	if !w.warm {
		return faassched.ColdStartOptions{}
	}
	return faassched.ColdStartOptions{
		Latency:   250 * time.Millisecond,
		KeepAlive: faassched.DefaultKeepAlive,
	}
}

func (w spec) faultPlan() faassched.FaultOptions {
	if w.crashes == 0 {
		return faassched.FaultOptions{}
	}
	return faassched.FaultOptions{
		Seed:      populationSeed,
		CrashMTBF: w.crashes,
		Retry:     faassched.RetryOptions{MaxAttempts: 3},
	}
}

func (w spec) autoscaleOptions(seed int64) faassched.AutoscaleOptions {
	return faassched.AutoscaleOptions{
		MinServers:     w.minimum,
		MaxServers:     w.servers,
		CoresPerServer: coresPerServer,
		Dispatch:       w.dispatch,
		Scheduler:      w.sched,
		Seed:           seed,
		ScalePolicy:    faassched.ScaleTargetUtilization,
		MetricsWindow:  metricsWindow,
		ColdStart:      w.coldStart(),
		Faults:         w.faultPlan(),
	}
}

// newPolicy builds one server's scheduler exactly as the facade does for
// the benchmark's schedulers, for the passes that drive the layers below
// the facade.
func (w spec) newPolicy() ghost.Policy {
	if w.sched == faassched.SchedulerCFS {
		return cfs.New(cfs.Params{})
	}
	return core.New(core.Config{
		FIFOCores: coresPerServer / 2,
		TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit},
	})
}

// outcome is the simulated result of one replay, reduced to what the
// benchmark reports and checks. Digest covers every deterministic total,
// so two replays of one input agree on it exactly or not at all.
type outcome struct {
	Routed    int                `json:"routed"`
	Completed int                `json:"completed"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Sim       map[string]float64 `json:"sim"`
	// Counts are layer counters from the result structs: kernel events,
	// ghost delegation counters, preemptions, cold starts, fault kills and
	// fleet shape. Absent keys mean the executor does not report them.
	Counts map[string]float64 `json:"counts"`
}

// fleetTotals are the executor-independent pieces of a finished replay.
type fleetTotals struct {
	acc         *metrics.Accumulator
	routed      int
	makespan    time.Duration
	serverHours float64
	events      uint64
	ghost       ghost.Stats
	hasKernel   bool // events and ghost are known
}

// reduce computes the sim metrics, the digest and the shared counts.
func (t fleetTotals) reduce() (outcome, error) {
	acc := t.acc
	out := outcome{
		Routed:    t.routed,
		Completed: acc.Completed(),
		Failed:    acc.FailedCount(),
		Counts:    map[string]float64{"preemptions": float64(acc.TotalPreemptions())},
	}
	if out.Completed == 0 {
		return out, fmt.Errorf("replay completed no invocation")
	}
	q := func(m metrics.Metric, p float64) (float64, error) {
		v, err := acc.Quantile(m, p)
		return v / 1000, err
	}
	p50, err := q(metrics.Turnaround, 0.5)
	if err != nil {
		return out, err
	}
	p99, err := q(metrics.Turnaround, 0.99)
	if err != nil {
		return out, err
	}
	p99e, err := q(metrics.Execution, 0.99)
	if err != nil {
		return out, err
	}
	out.Sim = map[string]float64{
		"sim_cost_per_1k_usd":  acc.Cost() / float64(out.Completed) * 1000,
		"sim_p50_turnaround_s": p50,
		"sim_p99_turnaround_s": p99,
		"sim_p99_exec_s":       p99e,
		"sim_server_hours":     t.serverHours,
		"goodput_frac":         float64(out.Completed) / float64(t.routed),
	}
	d := fmt.Sprintf("n=%d ok=%d fail=%d pre=%d exec=%d billed=%x cost=%x cold=%d giveup=%d q=%x/%x/%x span=%d hours=%x",
		t.routed, out.Completed, out.Failed, acc.TotalPreemptions(), acc.TotalExecution(),
		math.Float64bits(acc.CostAtUniformMemory(128)), math.Float64bits(acc.Cost()),
		acc.ColdStarts(), acc.GiveUps(), math.Float64bits(p50), math.Float64bits(p99),
		math.Float64bits(p99e), t.makespan, math.Float64bits(t.serverHours))
	if t.hasKernel {
		g := t.ghost
		d += fmt.Sprintf(" events=%d ghost=%d/%d/%d/%d/%d/%d", t.events,
			g.Delivered, g.Commits, g.Failed, g.Ticks, g.TicksElided, g.Migrations)
		out.Counts["events"] = float64(t.events)
		out.Counts["ticks"] = float64(g.Ticks)
		out.Counts["ticks_elided"] = float64(g.TicksElided)
		out.Counts["commits"] = float64(g.Commits)
		out.Counts["commit_fails"] = float64(g.Failed)
		out.Counts["migrations"] = float64(g.Migrations)
	}
	out.Digest = d
	return out, nil
}

// engine runs one untraced replay through the workload's public entry
// point and returns a reducer, so that reducing the result stays outside
// the measured window.
func (w spec) engine(in *input, seed int64) (func() (outcome, error), error) {
	switch w.exec {
	case execSharded:
		st, err := faassched.SimulateShardedReplay(w.clusterOptions(seed), faassched.Source(in.src))
		if err != nil {
			return nil, err
		}
		return func() (outcome, error) { return shardedOutcome(st, w.servers) }, nil
	case execFlat:
		res, err := faassched.SimulateCluster(w.clusterOptions(seed), in.invs)
		if err != nil {
			return nil, err
		}
		return func() (outcome, error) { return flatOutcome(res, len(in.invs)) }, nil
	default:
		st, err := faassched.SimulateAutoscaled(w.autoscaleOptions(seed), faassched.Source(in.src))
		if err != nil {
			return nil, err
		}
		return func() (outcome, error) { return elasticOutcome(st) }, nil
	}
}

func shardedOutcome(st *faassched.ShardedStats, servers int) (outcome, error) {
	out, err := fleetTotals{
		acc: st.Total(), routed: st.Invocations, makespan: st.Makespan,
		serverHours: float64(servers) * st.Makespan.Hours(),
		events:      st.KernelEvents, ghost: st.Ghost, hasKernel: true,
	}.reduce()
	if err != nil {
		return out, err
	}
	out.Counts["shards"] = float64(len(st.PerShard))
	var most, sum float64
	for _, sh := range st.PerShard {
		most = max(most, float64(sh.Events))
		sum += float64(sh.Events)
	}
	if sum > 0 {
		out.Counts["shard_event_imbalance"] = most / (sum / float64(len(st.PerShard)))
	}
	return out, nil
}

// flatOutcome pushes the exact records through an Accumulator in
// invocation order, so the flat executor's quantiles come from the same
// estimator as every other workload's.
func flatOutcome(res *faassched.ClusterResult, routed int) (outcome, error) {
	acc := metrics.NewAccumulator(pricing.Default())
	for _, r := range res.Set.Records {
		acc.Push(r)
	}
	t := fleetTotals{
		acc: acc, routed: routed, makespan: res.Makespan,
		serverHours: float64(res.Servers) * res.Makespan.Hours(), hasKernel: true,
	}
	live := 0
	for _, sr := range res.PerServer {
		t.events += sr.Events
		t.ghost.Accumulate(sr.Stats)
		if sr.Invocations > 0 {
			live++
		}
	}
	out, err := t.reduce()
	out.Counts["live_servers"] = float64(live)
	return out, err
}

func elasticOutcome(st *faassched.AutoscaleStats) (outcome, error) {
	out, err := fleetTotals{
		acc: st.Total(), routed: st.Completed + st.Failed, makespan: st.Makespan,
		serverHours: st.ServerSeconds / 3600,
	}.reduce()
	if err != nil {
		return out, err
	}
	elasticCounts(out.Counts, st.ColdStarts, st.Faults.Kills, st.Launched, st.MeanServers())
	return out, nil
}

func elasticCounts(c map[string]float64, coldStarts int, kills int64, launched int, mean float64) {
	c["cold_starts"] = float64(coldStarts)
	c["kills"] = float64(kills)
	c["launched"] = float64(launched)
	c["live_servers"] = float64(launched)
	c["mean_servers"] = mean
}

// autoscaleDirect is SimulateAutoscaled one layer down: the same elastic
// engine driven through autoscale.RunWindowed, which also reports the
// kernel and ghost counters the facade leaves out. Its totals must match
// the facade run's exactly.
func (w spec) autoscaleDirect(src workload.Source, seed int64) (func() (outcome, error), error) {
	opts := w.autoscaleOptions(seed)
	merged, res, err := autoscale.RunWindowed(autoscale.Config{
		Min:       opts.MinServers,
		Max:       opts.MaxServers,
		Policy:    opts.ScalePolicy,
		Dispatch:  opts.Dispatch,
		Seed:      opts.Seed,
		ColdStart: opts.ColdStart,
		Faults:    opts.Faults,
		Kernel:    simkern.DefaultConfig(coresPerServer),
		Sched:     w.newPolicy,
	}, src, pricing.Default(), metricsWindow)
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		out, err := fleetTotals{
			acc: merged.Total(), routed: res.Completed + res.Failed, makespan: res.Makespan,
			serverHours: res.ServerSeconds / 3600,
			events:      res.KernelEvents, ghost: res.Stats, hasKernel: true,
		}.reduce()
		if err != nil {
			return out, err
		}
		elasticCounts(out.Counts, res.ColdStarts, res.Faults.Kills, res.Launched(), res.MeanServers())
		return out, nil
	}, nil
}

// simDigest is the part of an outcome digest that covers simulated
// behaviour. The kernel and ghost counters after it count the simulator's
// own work, which a pure speed change may alter.
func simDigest(d string) string {
	if i := strings.Index(d, " events="); i >= 0 {
		return d[:i]
	}
	return d
}

// sameOutcome reports the first difference between two outcomes' digests,
// ignoring the kernel counters one side may lack.
func sameOutcome(a, b outcome) error {
	da, db := a.Digest, b.Digest
	if strings.Contains(da, " events=") != strings.Contains(db, " events=") {
		da, db = simDigest(da), simDigest(db)
	}
	if da != db {
		return fmt.Errorf("digest mismatch:\n  %s\n  %s", da, db)
	}
	return nil
}
