// Package faassched is the public facade of the hybrid-scheduler
// reproduction: simulate serverless (FaaS) workloads under different OS
// scheduling policies — the Linux-default CFS, FIFO variants, EDF,
// Round-Robin, Shinjuku-style centralized preemption, and the paper's
// hybrid two-group FIFO+CFS scheduler — and measure what each policy does
// to execution time, response time, turnaround time, and dollar cost
// under AWS-Lambda-style per-millisecond billing.
//
// Quickstart:
//
//	spec := faassched.WorkloadSpec{Minutes: 2}
//	invs, err := faassched.BuildWorkload(spec)
//	...
//	result, err := faassched.Simulate(faassched.Options{
//		Cores:     8,
//		Scheduler: faassched.SchedulerHybrid,
//	}, invs)
//	fmt.Println(result.Summary())
//
// The underlying layers (the discrete-event kernel, the ghOSt-style
// delegation enclave, the individual policies, the trace synthesizer, the
// experiment harness for every figure/table in the paper) live under
// internal/; see DESIGN.md for the map.
package faassched

import (
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/faassched/faassched/internal/autoscale"
	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/firecracker"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/edf"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/rr"
	"github.com/faassched/faassched/internal/policy/shinjuku"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

// Scheduler selects a scheduling policy.
type Scheduler string

// Available schedulers.
const (
	SchedulerFIFO      Scheduler = "fifo"       // centralized run-to-completion
	SchedulerFIFO100   Scheduler = "fifo+100ms" // FIFO with 100 ms preemption
	SchedulerCFS       Scheduler = "cfs"        // Linux-default Completely Fair Scheduler model
	SchedulerRR        Scheduler = "rr"         // Round-Robin
	SchedulerEDF       Scheduler = "edf"        // Earliest Deadline First
	SchedulerShinjuku  Scheduler = "shinjuku"   // centralized fast preemption
	SchedulerHybrid    Scheduler = "hybrid"     // the paper's two-group FIFO+CFS scheduler
	SchedulerHybridDyn Scheduler = "hybrid+dyn" // hybrid with adaptive limit (p95) and rightsizing
)

// Schedulers lists every selectable scheduler.
func Schedulers() []Scheduler {
	return []Scheduler{
		SchedulerFIFO, SchedulerFIFO100, SchedulerCFS, SchedulerRR,
		SchedulerEDF, SchedulerShinjuku, SchedulerHybrid, SchedulerHybridDyn,
	}
}

// Invocation re-exports the workload invocation type.
type Invocation = workload.Invocation

// WorkloadSpec configures synthetic workload construction: an
// Azure-calibrated trace is synthesized and pushed through the paper's
// §V-B pipeline (clean → Fibonacci bucketing → ×Downscale → evenly
// spaced arrivals).
type WorkloadSpec struct {
	// Seed makes the workload reproducible. Zero means 1.
	Seed int64
	// Minutes of trace to replay (1..10). Zero means 2 (the paper's main
	// workload window).
	Minutes int
	// MaxInvocations optionally stride-samples the result down to ~this
	// many invocations, preserving distribution and arrival span.
	MaxInvocations int
	// Downscale divides every per-minute invocation count. Zero means the
	// paper's ×100; 1 replays the full Azure-calibrated volume (~1.2M
	// invocations over the main two-minute window).
	Downscale int
}

// resolveWorkloadSpec applies spec defaulting and validation and
// synthesizes the backing trace — the one shared front half of
// BuildWorkload and BuildWorkloadSource, so the materialized and lazy
// paths cannot drift.
func resolveWorkloadSpec(spec WorkloadSpec) (workload.Builder, *trace.Trace, int, error) {
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Minutes == 0 {
		spec.Minutes = 2
	}
	if spec.Minutes < 1 || spec.Minutes > 10 {
		return workload.Builder{}, nil, 0, fmt.Errorf("faassched: Minutes %d out of [1,10]", spec.Minutes)
	}
	if spec.Downscale < 0 {
		return workload.Builder{}, nil, 0, fmt.Errorf("faassched: Downscale must be >= 0, got %d", spec.Downscale)
	}
	cfg := trace.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Minutes = 10
	tr, err := trace.Generate(cfg)
	if err != nil {
		return workload.Builder{}, nil, 0, err
	}
	return workload.Builder{Downscale: spec.Downscale}, tr, spec.Minutes, nil
}

// BuildWorkload synthesizes a workload from spec.
func BuildWorkload(spec WorkloadSpec) ([]Invocation, error) {
	b, tr, minutes, err := resolveWorkloadSpec(spec)
	if err != nil {
		return nil, err
	}
	invs, err := b.Build(tr, 0, minutes)
	if err != nil {
		return nil, err
	}
	if spec.MaxInvocations > 0 {
		invs = workload.Sample(invs, spec.MaxInvocations)
	}
	return invs, nil
}

// LoadWorkload covers the CLI pattern shared by the tools: replay the
// workload file at path when non-empty, otherwise synthesize from spec.
func LoadWorkload(path string, spec WorkloadSpec) ([]Invocation, error) {
	if path == "" {
		return BuildWorkload(spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.Read(f, fib.DurationModel{})
}

// Options configures a simulation.
type Options struct {
	// Cores is the enclave size. Zero means 8.
	Cores int
	// Scheduler picks the policy. Empty means SchedulerHybrid.
	Scheduler Scheduler
	// FIFOCores overrides the hybrid's FIFO group size (default: half).
	FIFOCores int
	// TimeLimit overrides the hybrid's static preemption limit (default:
	// the paper's 1,633 ms).
	TimeLimit time.Duration
	// Firecracker runs every invocation inside a simulated microVM
	// (boot + vCPU + IO threads, server memory budget).
	Firecracker bool
	// ServerMemMB caps microVM memory in Firecracker mode (default 512 GB).
	ServerMemMB int
	// Obs enables the observability layer (counters, trace export,
	// progress heartbeats). Nil disables it entirely; observation never
	// alters simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
}

// Result is a finished simulation's measurements.
type Result struct {
	// Scheduler that produced this result.
	Scheduler Scheduler
	// Set holds the per-invocation records.
	Set metrics.Set
	// Makespan is the completion time of the last task.
	Makespan time.Duration
	// Preemptions is the total task preemption count.
	Preemptions int
	// LaunchedVMs/FailedVMs are populated in Firecracker mode.
	LaunchedVMs int
	FailedVMs   int
}

// Metric re-exports the metric selector.
type Metric = metrics.Metric

// Metric selectors.
const (
	Execution  = metrics.Execution
	Response   = metrics.Response
	Turnaround = metrics.Turnaround
)

// CDF returns the empirical CDF (milliseconds) of metric m.
func (r *Result) CDF(m Metric) (stats.CDF, error) { return r.Set.CDF(m) }

// P99Seconds returns the 99th percentile of metric m in seconds.
func (r *Result) P99Seconds(m Metric) (float64, error) { return r.Set.P99(m) }

// CostUSD bills each invocation at its own memory size under the default
// AWS Lambda tariff.
func (r *Result) CostUSD() float64 { return r.Set.Cost(pricing.Default()) }

// CostAtUniformMemoryUSD bills every invocation as if it had memMB.
func (r *Result) CostAtUniformMemoryUSD(memMB int) float64 {
	return r.Set.CostAtUniformMemory(pricing.Default(), memMB)
}

// Summary returns a one-line digest.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s: %s | preemptions=%d makespan=%s cost=$%.6f",
		r.Scheduler, r.Set.Summary(), r.Preemptions, r.Makespan, r.CostUSD())
}

// newPolicy constructs the policy for opts.
func newPolicy(opts Options) (ghost.Policy, error) {
	hybridCfg := func(dyn bool) core.Config {
		nf := opts.FIFOCores
		if nf == 0 {
			nf = opts.Cores / 2
		}
		limit := opts.TimeLimit
		if limit == 0 {
			limit = core.DefaultStaticLimit
		}
		cfg := core.Config{
			FIFOCores: nf,
			TimeLimit: core.TimeLimitConfig{Static: limit},
		}
		if dyn {
			cfg.TimeLimit.Percentile = 0.95
			cfg.Rightsize = core.RightsizeConfig{Enabled: true}
		}
		return cfg
	}
	switch opts.Scheduler {
	case SchedulerFIFO:
		return fifo.New(fifo.Config{}), nil
	case SchedulerFIFO100:
		return fifo.New(fifo.Config{Quantum: 100 * time.Millisecond}), nil
	case SchedulerCFS:
		return cfs.New(cfs.Params{}), nil
	case SchedulerRR:
		return rr.New(rr.Config{}), nil
	case SchedulerEDF:
		return edf.New(edf.Config{}), nil
	case SchedulerShinjuku:
		return shinjuku.New(shinjuku.Config{}), nil
	case SchedulerHybrid:
		cfg := hybridCfg(false)
		if err := cfg.Validate(opts.Cores); err != nil {
			return nil, err
		}
		return core.New(cfg), nil
	case SchedulerHybridDyn:
		cfg := hybridCfg(true)
		if err := cfg.Validate(opts.Cores); err != nil {
			return nil, err
		}
		return core.New(cfg), nil
	default:
		return nil, fmt.Errorf("faassched: unknown scheduler %q (have %v)", opts.Scheduler, Schedulers())
	}
}

// Simulate runs invs under the selected scheduler and returns the
// measurements. The simulation is deterministic for given inputs.
func Simulate(opts Options, invs []Invocation) (*Result, error) {
	if opts.Cores == 0 {
		opts.Cores = 8
	}
	if opts.Cores < 2 {
		return nil, fmt.Errorf("faassched: need at least 2 cores, got %d", opts.Cores)
	}
	if opts.Scheduler == "" {
		opts.Scheduler = SchedulerHybrid
	}
	if len(invs) == 0 {
		return nil, fmt.Errorf("faassched: empty workload")
	}
	policy, err := newPolicy(opts)
	if err != nil {
		return nil, err
	}
	add := simrun.AddTasks(workload.Tasks(invs))
	var fleet *firecracker.Fleet
	if opts.Firecracker {
		fleet, err = firecracker.NewFleet(policy, firecracker.Config{ServerMemMB: opts.ServerMemMB})
		if err != nil {
			return nil, err
		}
		policy = fleet
		add = func(k *simkern.Kernel) error { return fleet.Launch(k, invs) }
	}
	kcfg, gcfg := simkern.DefaultConfig(opts.Cores), ghost.Config{}
	if tr := opts.Obs.Tracer(); tr != nil {
		kcfg.Probe = tr.KernelProbe(0)
		gcfg.Probe = tr.GhostProbe(0)
	}
	var gstats ghost.Stats
	kernel, err := simrun.ExecStats(kcfg, policy, gcfg, add, &gstats)
	if err != nil {
		return nil, err
	}
	set := metrics.Collect(kernel)
	if tr := opts.Obs.Tracer(); tr != nil {
		tr.TaskSet(0, &set)
	}
	if pg := opts.Obs.Progress(); pg != nil {
		pg.Routed.Add(int64(len(invs)))
		pg.Done.Add(int64(len(set.Records)))
	}
	if reg := opts.Obs.Registry(); reg != nil {
		reg.AddGhostStats(gstats)
		reg.Counter(obs.CKernEvents).Add(int64(kernel.EventSeq()))
		reg.Counter(obs.CInvocations).Add(int64(len(invs)))
	}
	res := &Result{
		Scheduler:   opts.Scheduler,
		Set:         set,
		Makespan:    kernel.Makespan(),
		Preemptions: set.TotalPreemptions(),
	}
	if fleet != nil {
		res.LaunchedVMs = fleet.Launched()
		res.FailedVMs = fleet.Failed()
		if reg := opts.Obs.Registry(); reg != nil {
			reg.Counter(obs.CFcLaunchFails).Add(int64(res.FailedVMs))
		}
	}
	return res, nil
}

// DurationModel re-exports the Fibonacci duration model for callers that
// build custom workloads.
func DurationModel() fib.DurationModel { return fib.DefaultModel() }

// Source re-exports the lazy invocation stream: an iter.Seq-style
// iterator yielding invocations in arrival order. Sources feed the
// streaming simulation entry points, which keep peak memory proportional
// to active tasks plus a bounded look-ahead window instead of the total
// invocation count — the difference between a two-minute snapshot and a
// multi-hour diurnal horizon.
type Source = workload.Source

// SliceSource adapts a materialized workload to a Source.
func SliceSource(invs []Invocation) Source { return workload.SliceSource(invs) }

// BuildWorkloadSource is BuildWorkload's lazy sibling: the trace is
// synthesized up front (cheap), but invocations are derived minute by
// minute as the consumer pulls them. MaxInvocations requires knowing the
// total and therefore falls back to materializing once; leave it zero for
// true streaming.
func BuildWorkloadSource(spec WorkloadSpec) (Source, error) {
	if spec.MaxInvocations > 0 {
		invs, err := BuildWorkload(spec)
		if err != nil {
			return nil, err
		}
		return workload.SliceSource(invs), nil
	}
	b, tr, minutes, err := resolveWorkloadSpec(spec)
	if err != nil {
		return nil, err
	}
	return b.Stream(tr, 0, minutes)
}

// streamOpts validates opts for the streaming entry points and returns
// the policy.
func streamOpts(opts Options) (Options, ghost.Policy, error) {
	if opts.Cores == 0 {
		opts.Cores = 8
	}
	if opts.Cores < 2 {
		return opts, nil, fmt.Errorf("faassched: need at least 2 cores, got %d", opts.Cores)
	}
	if opts.Scheduler == "" {
		opts.Scheduler = SchedulerHybrid
	}
	policy, err := newPolicy(opts)
	if err != nil {
		return opts, nil, err
	}
	return opts, policy, nil
}

// SimulateStreamed runs src through the streaming dataflow — lazy arrival
// admission, completion-sink retirement, task recycling — with the exact
// in-memory record sink, and is observationally identical to Simulate on
// the materialized equivalent of src, idle gaps included (DESIGN.md §7;
// TestGoldenDigests pins this per scheduler). Memory for the record set
// is still O(invocations); use SimulateAccumulated when the horizon makes
// even that too much.
func SimulateStreamed(opts Options, src Source) (*Result, error) {
	opts, policy, err := streamOpts(opts)
	if err != nil {
		return nil, err
	}
	var set metrics.Set
	kernel, fleet, err := runStream(opts, policy, src, &set)
	if err != nil {
		return nil, err
	}
	if len(set.Records) == 0 {
		return nil, fmt.Errorf("faassched: empty workload")
	}
	if reg := opts.Obs.Registry(); reg != nil {
		reg.Counter(obs.CInvocations).Add(int64(len(set.Records)))
	}
	sort.Slice(set.Records, func(i, j int) bool { return set.Records[i].ID < set.Records[j].ID })
	res := &Result{
		Scheduler:   opts.Scheduler,
		Set:         set,
		Makespan:    kernel.Makespan(),
		Preemptions: set.TotalPreemptions(),
	}
	if fleet != nil {
		res.LaunchedVMs = fleet.Launched()
		res.FailedVMs = fleet.Failed()
		if reg := opts.Obs.Registry(); reg != nil {
			reg.Counter(obs.CFcLaunchFails).Add(int64(res.FailedVMs))
		}
	}
	return res, nil
}

// StreamStats is a finished fixed-memory streaming simulation: counts,
// totals, and histogram-backed quantiles instead of per-invocation
// records.
type StreamStats struct {
	// Scheduler that produced this result.
	Scheduler Scheduler
	// Completed and Failed count retired invocations.
	Completed int
	Failed    int
	// Preemptions is the total task preemption count.
	Preemptions int
	// Makespan is the completion time of the last task.
	Makespan time.Duration
	// CostUSD bills every completed invocation at its own memory size
	// under the default tariff.
	CostUSD float64

	acc *metrics.Accumulator
}

// QuantileMs estimates metric m's q-th quantile in milliseconds from the
// streaming histograms (log-bucket resolution, a few percent of relative
// error).
func (s *StreamStats) QuantileMs(m Metric, q float64) (float64, error) {
	return s.acc.Quantile(m, q)
}

// P99Seconds estimates the 99th percentile of metric m in seconds.
func (s *StreamStats) P99Seconds(m Metric) (float64, error) { return s.acc.P99(m) }

// CostAtUniformMemoryUSD rebills every invocation as if it had memMB.
func (s *StreamStats) CostAtUniformMemoryUSD(memMB int) float64 {
	return s.acc.CostAtUniformMemory(memMB)
}

// Summary returns a one-line digest (quantiles are histogram estimates).
func (s *StreamStats) Summary() string {
	return fmt.Sprintf("%s: %s | preemptions=%d makespan=%s cost=$%.6f",
		s.Scheduler, s.acc.Summary(), s.Preemptions, s.Makespan, s.CostUSD)
}

// SimulateAccumulated runs src through the streaming dataflow with the
// fixed-memory accumulator sink: peak memory is O(active tasks +
// look-ahead window) no matter how long the workload runs. This is the
// entry point behind the multi-hour ext-diurnal experiment.
func SimulateAccumulated(opts Options, src Source) (*StreamStats, error) {
	opts, policy, err := streamOpts(opts)
	if err != nil {
		return nil, err
	}
	acc := metrics.NewAccumulator(pricing.Default())
	kernel, fleet, err := runStream(opts, policy, src, acc)
	if err != nil {
		return nil, err
	}
	if acc.Completed() == 0 {
		return nil, fmt.Errorf("faassched: empty workload")
	}
	if reg := opts.Obs.Registry(); reg != nil {
		reg.Counter(obs.CInvocations).Add(int64(acc.Completed() + acc.FailedCount()))
		if fleet != nil {
			reg.Counter(obs.CFcLaunchFails).Add(int64(fleet.Failed()))
		}
	}
	return &StreamStats{
		Scheduler:   opts.Scheduler,
		Completed:   acc.Completed(),
		Failed:      acc.FailedCount(),
		Preemptions: acc.TotalPreemptions(),
		Makespan:    kernel.Makespan(),
		CostUSD:     acc.Cost(),
		acc:         acc,
	}, nil
}

// runStream executes the shared streaming run: pooled tasks, lazy
// admission, sink retirement. In Firecracker mode the fleet wrapper
// draws boot tasks lazily from the source instead (one microVM per
// invocation, lifecycle state pruned as VMs retire, refused launches
// retired through the sink as Failed records), so long-horizon microVM
// experiments no longer need the materialized launcher.
func runStream(opts Options, policy ghost.Policy, src Source, sink metrics.Sink) (*simkern.Kernel, *firecracker.Fleet, error) {
	kcfg, gcfg := simkern.DefaultConfig(opts.Cores), ghost.Config{}
	if tr := opts.Obs.Tracer(); tr != nil {
		kcfg.Probe = tr.KernelProbe(0)
		gcfg.Probe = tr.GhostProbe(0)
	}
	sink = opts.Obs.WrapSink(0, sink)
	var gstats ghost.Stats
	scfg := simrun.StreamConfig{Sink: sink, Stats: &gstats}
	var k *simkern.Kernel
	var fleet *firecracker.Fleet
	var err error
	if opts.Firecracker {
		if fleet, err = firecracker.NewFleet(policy, firecracker.Config{ServerMemMB: opts.ServerMemMB}); err != nil {
			return nil, nil, err
		}
		k, err = simrun.ExecStream(kcfg, fleet, gcfg, fleet.Stream(src, sink), scfg)
	} else {
		k, err = simrun.ExecStreamPooled(kcfg, policy, gcfg, src, scfg)
	}
	if err != nil {
		return nil, nil, err
	}
	if reg := opts.Obs.Registry(); reg != nil {
		reg.AddGhostStats(gstats)
		reg.Counter(obs.CKernEvents).Add(int64(k.EventSeq()))
	}
	return k, fleet, nil
}

// Dispatch re-exports the cluster-level dispatch policy selector.
type Dispatch = cluster.Dispatch

// Available dispatch policies.
const (
	DispatchRandom        = cluster.DispatchRandom
	DispatchRoundRobin    = cluster.DispatchRoundRobin
	DispatchLeastLoaded   = cluster.DispatchLeastLoaded
	DispatchJoinIdleQueue = cluster.DispatchJoinIdleQueue
)

// Dispatches lists every selectable dispatch policy.
func Dispatches() []Dispatch { return cluster.Dispatches() }

// ColdStartOptions re-exports the per-function warm-instance model
// configuration: a cold placement pays Latency as extra service demand,
// a finished instance stays warm for KeepAlive, each server retains at
// most PoolMemMB of instance memory, and WarmFirst makes the dispatcher
// prefer warm candidates. The zero value disables the model entirely.
type ColdStartOptions = cluster.ColdStartConfig

// Cold-start model defaults.
const (
	DefaultColdStartLatency = cluster.DefaultColdStartLatency
	DefaultKeepAlive        = cluster.DefaultKeepAlive
)

// FaultOptions re-exports the deterministic fault plan (DESIGN.md §14):
// seeded per-server crash and straggler hazard processes, per-invocation
// timeouts, and retry/backoff recovery. The zero value disables the layer
// and reproduces pre-fault results byte for byte. Crash and timeout plans
// require an evicting scheduler (fifo, cfs, or hybrid).
type FaultOptions = faults.Config

// RetryOptions re-exports the retry/backoff policy inside a fault plan.
type RetryOptions = faults.RetryPolicy

// FaultStats re-exports the fault activity counters (crashes, kills,
// retries, give-ups, straggler windows).
type FaultStats = faults.Stats

// ClusterOptions configures a fleet simulation: Servers identical machines
// of CoresPerServer cores each, every one running Scheduler, with Dispatch
// routing each invocation to a server at its arrival time.
type ClusterOptions struct {
	// Servers is the fleet size. Zero means 4.
	Servers int
	// CoresPerServer is each server's enclave size. Zero means 8.
	CoresPerServer int
	// Dispatch picks the routing policy. Empty means DispatchLeastLoaded.
	Dispatch Dispatch
	// Scheduler is the per-server policy. Empty means SchedulerHybrid.
	Scheduler Scheduler
	// Seed drives the randomized dispatch policies. Zero means 1.
	Seed int64
	// FIFOCores overrides the hybrid's FIFO group size per server.
	FIFOCores int
	// TimeLimit overrides the hybrid's static preemption limit.
	TimeLimit time.Duration
	// ColdStart configures the per-function warm-instance model. The zero
	// value disables it and reproduces the pre-model results exactly.
	ColdStart ColdStartOptions
	// Shards partitions the fleet into contiguous server ranges, each
	// simulated by one worker goroutine of the lockstep engine (DESIGN.md
	// §11). Zero means 4×GOMAXPROCS, capped at Servers. Records, counts
	// and histograms are identical at any setting. SimulateCluster's cost
	// is too; SimulateShardedReplay's windowed cost is a float sum each
	// shard adds up in its own order, so it matches to within rounding
	// (DESIGN.md §16).
	Shards int
	// MetricsWindow is the sharded replay's per-window accumulator width
	// (SimulateShardedReplay only). Zero means one hour.
	MetricsWindow time.Duration
	// Obs enables the observability layer (counters, trace export,
	// progress heartbeats). Nil disables it entirely; observation never
	// alters simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
	// Faults is the deterministic fault plan (crashes, stragglers,
	// timeouts, retries; DESIGN.md §14). The zero value changes nothing.
	Faults FaultOptions
}

// ServerResult re-exports one server's share of a fleet simulation.
type ServerResult = cluster.ServerResult

// ClusterResult is a finished fleet simulation: the aggregate Result plus
// the per-server breakdown and the dispatch assignment.
type ClusterResult struct {
	// Result aggregates the whole fleet (merged metric set, fleet-wide
	// makespan, summed preemptions).
	Result
	// Dispatch that routed the workload.
	Dispatch Dispatch
	// Servers is the fleet size.
	Servers int
	// CoresPerServer is each server's enclave size.
	CoresPerServer int
	// PerServer holds each server's individual result, by fleet index.
	PerServer []ServerResult
	// Assignment maps each input invocation index to its server.
	Assignment []int
	// Faults aggregates fault-plan activity across routing layer and
	// servers (zero when the plan is disabled).
	Faults FaultStats
}

// ImbalanceRatio reports max-over-mean busy work across servers (1.0 is a
// perfectly even split).
func (r *ClusterResult) ImbalanceRatio() float64 { return cluster.Imbalance(r.PerServer) }

// Summary returns a one-line digest of the fleet run.
func (r *ClusterResult) Summary() string {
	return fmt.Sprintf("cluster[%d×%d %s] %s", r.Servers, r.CoresPerServer, r.Dispatch, r.Result.Summary())
}

// clusterConfig resolves opts into the fleet engine's config — the one
// resolver behind both fixed-fleet entry points, so they default and
// reject options alike.
func clusterConfig(opts ClusterOptions) (ClusterOptions, cluster.Config, error) {
	if opts.Servers == 0 {
		opts.Servers = 4
	}
	if opts.Servers < 1 {
		return opts, cluster.Config{}, fmt.Errorf("faassched: Servers must be >= 1, got %d", opts.Servers)
	}
	if opts.CoresPerServer == 0 {
		opts.CoresPerServer = 8
	}
	if opts.CoresPerServer < 2 {
		return opts, cluster.Config{}, fmt.Errorf("faassched: need at least 2 cores per server, got %d", opts.CoresPerServer)
	}
	if opts.Scheduler == "" {
		opts.Scheduler = SchedulerHybrid
	}
	if opts.Dispatch == "" {
		opts.Dispatch = DispatchLeastLoaded
	}
	if opts.MetricsWindow == 0 {
		opts.MetricsWindow = time.Hour
	}
	serverOpts := Options{
		Cores:     opts.CoresPerServer,
		Scheduler: opts.Scheduler,
		FIFOCores: opts.FIFOCores,
		TimeLimit: opts.TimeLimit,
	}
	// Validate the per-server configuration once, up front.
	if _, err := newPolicy(serverOpts); err != nil {
		return opts, cluster.Config{}, err
	}
	return opts, cluster.Config{
		Servers:   opts.Servers,
		Dispatch:  opts.Dispatch,
		Seed:      opts.Seed,
		ColdStart: opts.ColdStart,
		Shards:    opts.Shards,
		Obs:       opts.Obs,
		Faults:    opts.Faults,
		Kernel:    simkern.DefaultConfig(opts.CoresPerServer),
		Policy: func() ghost.Policy {
			p, err := newPolicy(serverOpts)
			if err != nil {
				return nil // unreachable: serverOpts validated above
			}
			return p
		},
	}, nil
}

// SimulateCluster routes invs across a fleet and simulates the servers on
// the lockstep engine (DESIGN.md §11). Results are deterministic for given
// inputs regardless of the shard count or goroutine interleaving.
func SimulateCluster(opts ClusterOptions, invs []Invocation) (*ClusterResult, error) {
	opts, cfg, err := clusterConfig(opts)
	if err != nil {
		return nil, err
	}
	if len(invs) == 0 {
		return nil, fmt.Errorf("faassched: empty workload")
	}
	cres, err := cluster.Simulate(cfg, workload.SliceSource(invs))
	if err != nil {
		return nil, err
	}
	return &ClusterResult{
		Result: Result{
			Scheduler:   opts.Scheduler,
			Set:         cres.Set,
			Makespan:    cres.Makespan,
			Preemptions: cres.Preemptions,
		},
		Dispatch:       cres.Dispatch,
		Servers:        cres.Servers,
		CoresPerServer: opts.CoresPerServer,
		PerServer:      cres.PerServer,
		Assignment:     cres.Assignment,
		Faults:         cres.Faults,
	}, nil
}

// GhostStats re-exports the per-enclave delegation counters (messages
// delivered, commits, commit failures, fired vs elided agent ticks,
// migrations), aggregated fleet-wide in ShardedStats.
type GhostStats = ghost.Stats

// ShardUtil re-exports one shard's share of a sharded replay.
type ShardUtil = obs.ShardUtil

// ShardedStats is a finished sharded windowed fleet replay.
type ShardedStats struct {
	Scheduler Scheduler
	Dispatch  Dispatch
	// Servers and Shards echo the resolved topology.
	Servers, Shards int
	// Invocations is the total arrival count routed.
	Invocations int
	// Makespan is the fleet-wide last completion time.
	Makespan time.Duration
	// Ghost aggregates the fleet's full delegation counters.
	Ghost GhostStats
	// KernelEvents sums scheduled kernel events across servers.
	KernelEvents uint64
	// PerShard reports each shard's server range and share of
	// invocations and kernel events, by shard index.
	PerShard []ShardUtil
	// Faults aggregates fault-plan activity (zero when disabled).
	Faults FaultStats

	acc *metrics.WindowedAccumulator
}

// WindowWidth returns the per-window sub-accumulator width.
func (s *ShardedStats) WindowWidth() time.Duration { return s.acc.Width() }

// WindowCount returns how many completion windows the replay spans.
func (s *ShardedStats) WindowCount() int { return s.acc.Windows() }

// Window returns window i's fixed-memory statistics.
func (s *ShardedStats) Window(i int) *metrics.Accumulator { return s.acc.Window(i) }

// Total returns the whole-run roll-up accumulator.
func (s *ShardedStats) Total() *metrics.Accumulator { return s.acc.Total() }

// Summary returns a one-line digest.
func (s *ShardedStats) Summary() string {
	return fmt.Sprintf("sharded[%d servers/%d shards %s/%s] %s",
		s.Servers, s.Shards, s.Scheduler, s.Dispatch, s.acc.Total().Summary())
}

// SimulateShardedReplay streams src through the sharded lockstep fleet
// engine (DESIGN.md §11): routing and simulation advance together under a
// watermark protocol, each shard folds completions into a shard-local
// windowed accumulator, and the shard accumulators merge pairwise in
// shard order. Memory is O(shards × windows + active tasks) regardless of
// the workload length — the entry point for provider-scale replays
// (1,000 servers, multi-day ×10-volume traces) where SimulateCluster's
// exact record set would not fit. It runs the same engine as
// SimulateCluster. At any Shards setting its counts, histograms,
// makespan and kernel and delegation counters are identical, and its
// cost matches to within rounding: each shard sums cost in its own
// completion order, so the last bits depend on the partition.
func SimulateShardedReplay(opts ClusterOptions, src Source) (*ShardedStats, error) {
	opts, cfg, err := clusterConfig(opts)
	if err != nil {
		return nil, err
	}
	rep, err := cluster.SimulateShardedWindowed(cfg, workload.Source(src), pricing.Default(), opts.MetricsWindow)
	if err != nil {
		return nil, err
	}
	return &ShardedStats{
		Scheduler:    opts.Scheduler,
		Dispatch:     rep.Dispatch,
		Servers:      rep.Servers,
		Shards:       rep.Shards,
		Invocations:  rep.Invocations,
		Makespan:     rep.Makespan,
		Ghost:        rep.Stats,
		KernelEvents: rep.Events,
		PerShard:     rep.PerShard,
		Faults:       rep.Faults,
		acc:          rep.Windowed,
	}, nil
}

// ScalePolicy re-exports the fleet scaling policy selector.
type ScalePolicy = autoscale.ScalePolicy

// Available scaling policies.
const (
	ScaleTargetUtilization = autoscale.PolicyTargetUtilization
	ScaleQueueDepth        = autoscale.PolicyQueueDepth
)

// ScalePolicies lists every selectable scaling policy.
func ScalePolicies() []ScalePolicy { return autoscale.Policies() }

// FleetEvent re-exports one entry of the autoscaler's fleet-size timeline.
type FleetEvent = autoscale.Event

// FleetServer re-exports one server's lifecycle in an autoscaled run.
type FleetServer = autoscale.Server

// AutoscaleOptions configures an elastic fleet simulation: the fleet
// starts at MinServers, grows toward MaxServers when the scaling signal
// crosses its up threshold (each new server becoming routable only after
// SpinUp), and drains back down when load subsides — finishing every
// in-flight invocation before a server retires.
type AutoscaleOptions struct {
	// MinServers is the provisioned floor, ready at time zero. Zero means 1.
	MinServers int
	// MaxServers caps the fleet. Zero means 4.
	MaxServers int
	// CoresPerServer is each server's enclave size. Zero means 8.
	CoresPerServer int
	// Dispatch routes arrivals among ready, non-draining servers. Empty
	// means DispatchLeastLoaded.
	Dispatch Dispatch
	// Scheduler is the per-server policy. Empty means SchedulerHybrid.
	Scheduler Scheduler
	// Seed drives the randomized dispatch policies. Zero means 1.
	Seed int64
	// FIFOCores / TimeLimit override the hybrid's per-server knobs.
	FIFOCores int
	TimeLimit time.Duration
	// ScalePolicy picks the scaling signal. Empty means
	// ScaleTargetUtilization.
	ScalePolicy ScalePolicy
	// SpinUp is the server provisioning latency. Zero means the default
	// (30 s).
	SpinUp time.Duration
	// MetricsWindow is the width of the per-window sub-accumulators in
	// SimulateAutoscaled's result. Zero means one hour.
	MetricsWindow time.Duration
	// ColdStart configures the per-function warm-instance model; retiring
	// a server destroys its warm pool. The zero value disables the model.
	ColdStart ColdStartOptions
	// Obs enables the observability layer (counters, trace export,
	// progress heartbeats). Nil disables it entirely; observation never
	// alters simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
	// Faults is the deterministic fault plan, run in terminal mode: a
	// crash retires the slot for good and a cold replacement is launched.
	// Straggler plans are rejected here. The zero value changes nothing.
	Faults FaultOptions
}

// autoscaleConfig resolves opts into the internal autoscaler config.
func autoscaleConfig(opts AutoscaleOptions) (AutoscaleOptions, autoscale.Config, error) {
	if opts.MinServers == 0 {
		opts.MinServers = 1
	}
	if opts.MaxServers == 0 {
		opts.MaxServers = 4
	}
	if opts.CoresPerServer == 0 {
		opts.CoresPerServer = 8
	}
	if opts.CoresPerServer < 2 {
		return opts, autoscale.Config{}, fmt.Errorf("faassched: need at least 2 cores per server, got %d", opts.CoresPerServer)
	}
	if opts.Scheduler == "" {
		opts.Scheduler = SchedulerHybrid
	}
	serverOpts := Options{
		Cores:     opts.CoresPerServer,
		Scheduler: opts.Scheduler,
		FIFOCores: opts.FIFOCores,
		TimeLimit: opts.TimeLimit,
	}
	// Validate the per-server configuration once, up front.
	if _, err := newPolicy(serverOpts); err != nil {
		return opts, autoscale.Config{}, err
	}
	return opts, autoscale.Config{
		Min:       opts.MinServers,
		Max:       opts.MaxServers,
		Policy:    opts.ScalePolicy,
		SpinUp:    opts.SpinUp,
		Dispatch:  opts.Dispatch,
		Seed:      opts.Seed,
		ColdStart: opts.ColdStart,
		Obs:       opts.Obs,
		Faults:    opts.Faults,
		Kernel:    simkern.DefaultConfig(opts.CoresPerServer),
		Sched: func() ghost.Policy {
			p, err := newPolicy(serverOpts)
			if err != nil {
				return nil // unreachable: serverOpts validated above
			}
			return p
		},
	}, nil
}

// AutoscaleStats is a finished elastic fleet simulation: whole-run and
// per-window fixed-memory statistics, the fleet-size timeline, and the
// infrastructure ledger (billed server-seconds) alongside the paper's
// per-invocation execution cost.
type AutoscaleStats struct {
	// Scheduler / Dispatch / ScalePolicy identify the run.
	Scheduler   Scheduler
	Dispatch    Dispatch
	ScalePolicy ScalePolicy
	// Completed and Failed count retired invocations (their sum is every
	// routed invocation — drain-before-retire drops nothing).
	Completed int
	Failed    int
	// Preemptions is the fleet-wide task preemption count.
	Preemptions int
	// ColdStarts counts routed invocations that paid the instance
	// spin-up penalty (zero with the cold-start model disabled).
	ColdStarts int
	// Makespan is the fleet-wide last completion time.
	Makespan time.Duration
	// CostUSD bills every completed invocation at its own memory size —
	// the paper's execution cost.
	CostUSD float64
	// ServerSeconds is the summed billed uptime across all servers;
	// InfraCostUSD prices it under the default server tariff.
	ServerSeconds float64
	InfraCostUSD  float64
	// PeakServers is the maximum billed fleet size; Launched and Drained
	// count scale events over the run.
	PeakServers int
	Launched    int
	Drained     int
	// Events is the fleet-size timeline; Servers the per-server
	// lifecycles.
	Events  []FleetEvent
	Servers []FleetServer
	// Crashed counts servers the fault plan retired off-schedule; Faults
	// holds the full fault counters (zero when the plan is disabled).
	Crashed int
	Faults  FaultStats

	acc *metrics.WindowedAccumulator
	res *autoscale.Result
}

// MeanServers is the time-averaged billed fleet size.
func (s *AutoscaleStats) MeanServers() float64 { return s.res.MeanServers() }

// WindowWidth returns the per-window sub-accumulator width.
func (s *AutoscaleStats) WindowWidth() time.Duration { return s.acc.Width() }

// WindowCount returns how many completion windows the run spans.
func (s *AutoscaleStats) WindowCount() int { return s.acc.Windows() }

// Window returns window i's fixed-memory statistics (completions whose
// finish instant fell in [i·width, (i+1)·width)).
func (s *AutoscaleStats) Window(i int) *metrics.Accumulator { return s.acc.Window(i) }

// Total returns the whole-run roll-up accumulator.
func (s *AutoscaleStats) Total() *metrics.Accumulator { return s.acc.Total() }

// ServerSecondsIn sums billed server uptime overlapping [from, to).
func (s *AutoscaleStats) ServerSecondsIn(from, to time.Duration) float64 {
	return s.res.ServerSecondsIn(from, to)
}

// Timeline renders the fleet-size trajectory compactly (maxSteps caps the
// rendered launch/retire steps; 0 means no cap).
func (s *AutoscaleStats) Timeline(maxSteps int) string { return s.res.Timeline(maxSteps) }

// Summary returns a one-line digest.
func (s *AutoscaleStats) Summary() string {
	return fmt.Sprintf("%s/%s/%s: %s | fleet peak=%d mean=%.2f server_s=%.0f | exec=$%.6f infra=$%.6f",
		s.Scheduler, s.Dispatch, s.ScalePolicy, s.acc.Total().Summary(),
		s.PeakServers, s.MeanServers(), s.ServerSeconds, s.CostUSD, s.InfraCostUSD)
}

// SimulateAutoscaled runs src through the elastic fleet with fixed-memory
// windowed sinks: peak memory is O(active tasks + one watermark step of
// arrivals + windows) no matter how long the workload runs, which is what
// lets the diurnal horizon be sized by an elastic fleet at all. Per-server
// sinks merge in server-index order, so results are deterministic for
// given inputs regardless of goroutine interleaving.
func SimulateAutoscaled(opts AutoscaleOptions, src Source) (*AutoscaleStats, error) {
	opts, cfg, err := autoscaleConfig(opts)
	if err != nil {
		return nil, err
	}
	width := opts.MetricsWindow
	if width == 0 {
		width = time.Hour
	}
	merged, res, err := autoscale.RunWindowed(cfg, workload.Source(src), pricing.Default(), width)
	if err != nil {
		return nil, err
	}
	return &AutoscaleStats{
		Scheduler:     opts.Scheduler,
		Dispatch:      res.Dispatch,
		ScalePolicy:   res.Policy,
		Completed:     res.Completed,
		Failed:        res.Failed,
		Preemptions:   res.Preemptions,
		ColdStarts:    res.ColdStarts,
		Makespan:      res.Makespan,
		CostUSD:       merged.Total().Cost(),
		ServerSeconds: res.ServerSeconds,
		InfraCostUSD:  pricing.DefaultServer().Cost(res.ServerSeconds),
		PeakServers:   res.PeakServers,
		Launched:      res.Launched(),
		Drained:       res.Drained(),
		Events:        res.Events,
		Servers:       res.Servers,
		Crashed:       res.Crashed(),
		Faults:        res.Faults,
		acc:           merged,
		res:           res,
	}, nil
}

// SimulateAutoscaledExact is SimulateAutoscaled with exact per-record
// sinks, packaged as a ClusterResult (merged record set, per-server
// breakdown, full assignment). Memory is O(invocations) — it exists for
// validation: pinned to MinServers == MaxServers == N it reproduces
// SimulateCluster's results bit for bit (the golden digests pin
// this per dispatch policy).
func SimulateAutoscaledExact(opts AutoscaleOptions, src Source) (*ClusterResult, error) {
	opts, cfg, err := autoscaleConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.TrackAssignment = true
	res, err := autoscale.Run(cfg, workload.Source(src))
	if err != nil {
		return nil, err
	}
	out := &ClusterResult{
		Result: Result{
			Scheduler:   opts.Scheduler,
			Makespan:    res.Makespan,
			Preemptions: res.Preemptions,
		},
		Dispatch:       res.Dispatch,
		Servers:        res.Launched(),
		CoresPerServer: opts.CoresPerServer,
		Assignment:     res.Assignment,
	}
	for i := range res.Servers {
		sv := &res.Servers[i]
		sr := ServerResult{
			Server:      sv.Index,
			Invocations: sv.Routed,
			Makespan:    sv.Makespan,
			Preemptions: sv.Preemptions,
		}
		if sv.Set != nil {
			sr.Set = *sv.Set
			out.Result.Set.Records = append(out.Result.Set.Records, sv.Set.Records...)
		}
		out.PerServer = append(out.PerServer, sr)
	}
	sort.Slice(out.Result.Set.Records, func(i, j int) bool {
		return out.Result.Set.Records[i].ID < out.Result.Set.Records[j].ID
	})
	return out, nil
}
