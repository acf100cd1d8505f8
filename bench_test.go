package faassched

// Benchmark harness: one testing.B benchmark per figure/table in the
// paper's evaluation (DESIGN.md §3 maps ids to figures), plus
// micro-benchmarks for the scheduling substrate. The figure benchmarks run
// the same code paths as `faasbench`, at quick scale so `go test -bench=.`
// terminates in minutes; `faasbench -scale full` regenerates the
// paper-sized results.
//
// Figure benchmarks report, beyond ns/op, the headline quantity of their
// figure via b.ReportMetric (cost ratios, p99 seconds, KS distances).

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/experiments"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns a shared quick-scale environment (workload construction is
// cached inside).
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.ScaleQuick)
		// Warm the workload caches outside timed sections.
		if _, err := benchEnv.W2(); err != nil {
			panic(err)
		}
		if _, err := benchEnv.W10(); err != nil {
			panic(err)
		}
	})
	return benchEnv
}

// runFigure executes one experiment per iteration and reports extracted
// metrics from the final run.
func runFigure(b *testing.B, id string, report func(b *testing.B, fig *experiments.Figure)) {
	b.Helper()
	e := env(b)
	var fig *experiments.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Run(e, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if report != nil {
		report(b, fig)
	}
}

// cell parses a float cell from the first row matching key in column 0.
func cell(b *testing.B, fig *experiments.Figure, key string, col int) float64 {
	b.Helper()
	for _, row := range fig.Rows {
		if row[0] == key {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				b.Fatalf("bad cell %q: %v", row[col], err)
			}
			return v
		}
	}
	b.Fatalf("row %q not found", key)
	return 0
}

func BenchmarkFig01Cost(b *testing.B) {
	runFigure(b, "fig1", func(b *testing.B, fig *experiments.Figure) {
		b.ReportMetric(cell(b, fig, "1024", 3), "cfs/fifo_cost_ratio")
	})
}

func BenchmarkFig02Trace(b *testing.B)       { runFigure(b, "fig2", nil) }
func BenchmarkFig04FIFOvsCFS(b *testing.B)   { runFigure(b, "fig4", nil) }
func BenchmarkFig05Preemption(b *testing.B)  { runFigure(b, "fig5", nil) }
func BenchmarkFig06Hybrid(b *testing.B)      { runFigure(b, "fig6", nil) }
func BenchmarkFig10Sampling(b *testing.B)    { runFigure(b, "fig10", nil) }
func BenchmarkFig11CoreSplit(b *testing.B)   { runFigure(b, "fig11", nil) }
func BenchmarkFig12HybridVsCFS(b *testing.B) { runFigure(b, "fig12", nil) }

func BenchmarkFig13Preemptions(b *testing.B) {
	runFigure(b, "fig13", func(b *testing.B, fig *experiments.Figure) {
		// Total preemptions per scheduler from the long-format rows.
		totals := map[string]float64{}
		for _, row := range fig.Rows {
			v, _ := strconv.ParseFloat(row[2], 64)
			totals[row[0]] += v
		}
		if totals["hybrid"] > 0 {
			b.ReportMetric(totals["cfs"]/totals["hybrid"], "cfs/hybrid_preemptions")
		}
	})
}

func BenchmarkFig14Utilization(b *testing.B)   { runFigure(b, "fig14", nil) }
func BenchmarkFig15TimeLimits(b *testing.B)    { runFigure(b, "fig15", nil) }
func BenchmarkFig16AdaptP75(b *testing.B)      { runFigure(b, "fig16", nil) }
func BenchmarkFig17AdaptP95(b *testing.B)      { runFigure(b, "fig17", nil) }
func BenchmarkFig18Rightsizing(b *testing.B)   { runFigure(b, "fig18", nil) }
func BenchmarkFig19RightsizeUtil(b *testing.B) { runFigure(b, "fig19", nil) }
func BenchmarkFig21Firecracker(b *testing.B)   { runFigure(b, "fig21", nil) }

func BenchmarkFig20Cost(b *testing.B) {
	runFigure(b, "fig20", func(b *testing.B, fig *experiments.Figure) {
		h := cell(b, fig, "1024", 1)
		c := cell(b, fig, "1024", 3)
		if h > 0 {
			b.ReportMetric(c/h, "cfs/hybrid_cost_ratio")
		}
	})
}

func BenchmarkFig22FirecrackerCost(b *testing.B) {
	runFigure(b, "fig22", func(b *testing.B, fig *experiments.Figure) {
		b.ReportMetric(cell(b, fig, "1024", 3), "hybrid_saving_pct")
	})
}

func BenchmarkFig23Scatter(b *testing.B) { runFigure(b, "fig23", nil) }

// Ablations and extensions beyond the paper (DESIGN.md §4 design choices
// and the §VII-4 future-work feature).
func BenchmarkAblationSwitchCost(b *testing.B)   { runFigure(b, "ablation-switchcost", nil) }
func BenchmarkAblationCachePenalty(b *testing.B) { runFigure(b, "ablation-cachepenalty", nil) }
func BenchmarkAblationMinGran(b *testing.B)      { runFigure(b, "ablation-mingran", nil) }
func BenchmarkAblationMsgLatency(b *testing.B)   { runFigure(b, "ablation-msglatency", nil) }
func BenchmarkTable1Interference(b *testing.B)   { runFigure(b, "table1i", nil) }
func BenchmarkExtVMThreads(b *testing.B)         { runFigure(b, "ext-vmthreads", nil) }

func BenchmarkTable1Summary(b *testing.B) {
	runFigure(b, "table1", func(b *testing.B, fig *experiments.Figure) {
		b.ReportMetric(cell(b, fig, "p99_execution_s", 2), "cfs_p99_exec_s")
		b.ReportMetric(cell(b, fig, "p99_execution_s", 3), "ours_p99_exec_s")
	})
}

// --- substrate micro-benchmarks ---

// BenchmarkKernelDispatch measures raw place/preempt mechanism cost.
func BenchmarkKernelDispatch(b *testing.B) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		b.Fatal(err)
	}
	k.SetHandler(handlerFuncs{})
	task := &simkern.Task{ID: 1, Work: time.Hour}
	if err := k.AddTask(task); err != nil {
		b.Fatal(err)
	}
	if _, err := k.Run(time.Nanosecond); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunTask(0, task); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Preempt(0); err != nil {
			b.Fatal(err)
		}
	}
}

type handlerFuncs struct{}

func (handlerFuncs) OnTaskArrived(*simkern.Task)                  {}
func (handlerFuncs) OnTaskFinished(*simkern.Task, simkern.CoreID) {}

// BenchmarkCFSSimulation measures end-to-end simulation throughput of the
// heaviest policy: events per wall second for a 500-task CFS run.
func BenchmarkCFSSimulation(b *testing.B) {
	e := env(b)
	invs, err := e.W2()
	if err != nil {
		b.Fatal(err)
	}
	invs = workload.Sample(invs, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := simkern.New(simkern.DefaultConfig(8))
		if err != nil {
			b.Fatal(err)
		}
		enc, err := ghost.NewEnclave(k, cfs.New(cfs.Params{}), ghost.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range workload.Tasks(invs) {
			if err := k.AddTask(t); err != nil {
				b.Fatal(err)
			}
		}
		n, err := k.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "events/run")
		b.ReportMetric(float64(enc.Stats().TicksElided), "ticks_elided")
	}
}

// fullscaleWorkload builds the window shared by the dataflow-comparison
// benchmarks: a ×1-rate (already-downscaled-volume, Downscale=1) arrival
// stream with shortened durations (~119 ms mean, ~12 busy cores at the
// 6,221/min calibrated rate) so a 16-core machine sustains it at ~77%
// utilization. Sustainability is the point, not a dodge: the streaming
// memory bound is O(active tasks + look-ahead window), and on an
// overloaded box every task is active — no dataflow can bound that.
// Long-horizon runs (ext-diurnal) are exactly the sustained-rate regime
// this models.
var (
	fullscaleBenchOnce sync.Once
	fullscaleBenchInvs []workload.Invocation
)

func fullscaleWorkload(b *testing.B) []workload.Invocation {
	b.Helper()
	fullscaleBenchOnce.Do(func() {
		cfg := trace.DefaultConfig()
		cfg.Minutes = 2
		cfg.RateScale = 1
		cfg.ShortMedianMs = 30
		cfg.TailMedianMs = 2000
		cfg.TailWeight = 0.01
		tr, err := trace.Generate(cfg)
		if err != nil {
			panic(err)
		}
		fullscaleBenchInvs, err = workload.Builder{Downscale: 1}.Build(tr, 0, 2)
		if err != nil {
			panic(err)
		}
	})
	return fullscaleBenchInvs
}

// BenchmarkStreamedFullscale contrasts the two dataflows end to end under
// FIFO (run-to-completion, so the policy itself allocates nothing and the
// dataflow difference is the whole signal): "materialized" seeds every
// task up front and Collects every record afterwards — allocs/op scales
// with total invocations — while "streamed" feeds the same window through
// lazy admission, task recycling, and a fixed-memory accumulator sink —
// allocs/op is bounded by active tasks + the look-ahead window. The
// allocs/op ratio between the sub-benchmarks is the memory win the
// streaming dataflow exists for (BENCH_baseline.json records it;
// peak_tasks reports the pool high-water mark).
func BenchmarkStreamedFullscale(b *testing.B) {
	invs := fullscaleWorkload(b)
	kcfg := simkern.DefaultConfig(16)

	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, err := simrun.Exec(kcfg, fifoPolicy(), ghost.Config{}, simrun.AddTasks(workload.Tasks(invs)))
			if err != nil {
				b.Fatal(err)
			}
			set := metrics.Collect(k)
			if len(set.Records) != len(invs) {
				b.Fatalf("collected %d of %d", len(set.Records), len(invs))
			}
		}
		b.ReportMetric(float64(len(invs)), "invocations")
	})
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		var poolHighWater int
		for i := 0; i < b.N; i++ {
			pool := workload.NewTaskPool()
			src, stop := simrun.PooledTasks(workload.SliceSource(invs), pool)
			acc := metrics.NewAccumulator(pricing.Default())
			// A 5 s look-ahead (vs the 30 s default) makes the window term
			// of the O(active + look-ahead) bound visible at this rate.
			_, err := simrun.ExecStream(kcfg, fifoPolicy(), ghost.Config{}, src,
				simrun.StreamConfig{Window: 5 * time.Second, Sink: acc, Recycle: func(t *simkern.Task) { pool.Put(t) }})
			stop()
			if err != nil {
				b.Fatal(err)
			}
			if acc.Completed() != len(invs) {
				b.Fatalf("accumulated %d of %d", acc.Completed(), len(invs))
			}
			poolHighWater = pool.FreeLen()
		}
		b.ReportMetric(float64(len(invs)), "invocations")
		b.ReportMetric(float64(poolHighWater), "peak_tasks")
	})
}

func fifoPolicy() ghost.Policy { return fifo.New(fifo.Config{}) }

// BenchmarkShardedFleetReplay drives the sharded lockstep fleet engine
// (DESIGN.md §11) at three scales. The 1 h and 2 h cases keep `go test
// -bench=.` friendly; the 24 h cases are the engine's landing criterion —
// a full diurnal window at ×10 the Azure-calibrated volume (~90M
// invocations) across 1,000 and 10,000 servers — and only make sense
// under -benchtime 1x (scripts/bench_baseline.sh runs them that way).
// Dispatch is round-robin on the 1,000-server row: an O(servers)
// least-loaded scan per pick is exactly the kind of cost that does not
// survive 90M picks over 1,000 servers.
func BenchmarkShardedFleetReplay(b *testing.B) {
	cases := []struct {
		name             string
		servers, minutes int
		rateScale        float64
		dispatch         Dispatch
	}{
		{"100servers_x1_2h", 100, 120, 1, DispatchRoundRobin},
		// The idle fleet: 10,000 servers at ×1 leave ~160 live and put
		// them all in the first shard, so the row times how well the
		// router overlaps with one hot shard (DESIGN.md §16). Its -cpu 2
		// row is the one that shows it.
		{"10000servers_x1_1h", 10000, 60, 1, DispatchLeastLoaded},
		{"1000servers_x10_24h", 1000, 1440, 10, DispatchRoundRobin},
		// The 10k row routes least-loaded: the policy whose former
		// O(servers) scan made the router the bottleneck at this scale,
		// now answered by the fleet load index (DESIGN.md §12).
		{"10000servers_x10_24h", 10000, 1440, 10, DispatchLeastLoaded},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			if tc.minutes >= 24*60 && os.Getenv("FAASSCHED_BIGBENCH") == "" {
				b.Skip("set FAASSCHED_BIGBENCH=1 for the 24 h ×10 replays (~90M invocations, minutes of wall time; scripts/bench_baseline.sh does)")
			}
			cfg := trace.DefaultConfig()
			cfg.Seed = 1
			cfg.Minutes = tc.minutes
			cfg.RateScale = tc.rateScale
			tr, err := trace.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var rep *ShardedStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := workload.Builder{Downscale: 1}.Stream(tr, 0, tc.minutes)
				if err != nil {
					b.Fatal(err)
				}
				rep, err = SimulateShardedReplay(ClusterOptions{
					Servers:        tc.servers,
					CoresPerServer: 8,
					Dispatch:       tc.dispatch,
					Scheduler:      SchedulerHybrid,
					Seed:           1,
					MetricsWindow:  time.Hour,
				}, Source(src))
				if err != nil {
					b.Fatal(err)
				}
				if rep.Total().Completed() == 0 {
					b.Fatal("replay completed nothing")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rep.Invocations), "invocations")
			b.ReportMetric(float64(rep.KernelEvents)/float64(rep.Invocations), "events/inv")
			b.ReportMetric(float64(rep.Shards), "shards")
			b.ReportMetric(float64(rep.Ghost.TicksElided), "ticks_elided")
		})
	}
}

// BenchmarkSweepRunner contrasts the experiment sweep runner's serial and
// parallel paths on a real grid experiment (ext-coldstart: TTL × dispatch
// × scheduler, 24 independent fleet cells at quick scale). The ns/op
// ratio between the sub-benchmarks is the fan-out speedup; the collated
// figure is byte-identical either way (TestSweepMatchesSerial pins that).
func BenchmarkSweepRunner(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := experiments.NewEnv(experiments.ScaleQuick)
			e.SweepWorkers = tc.workers
			if _, err := e.W2(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig, err := experiments.Run(e, "ext-coldstart")
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Rows) == 0 {
					b.Fatal("empty figure")
				}
			}
		})
	}
}

// BenchmarkWorkloadBuild measures the §V-B pipeline.
func BenchmarkWorkloadBuild(b *testing.B) {
	e := env(b)
	tr, err := e.Trace()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invs, err := workload.Builder{}.Build(tr, 0, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(invs) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkWorkloadStream is BenchmarkWorkloadBuild's streaming row: it
// drains Builder.Stream over the same trace without materializing it, so
// ns/inv is the source layer's cost per yielded invocation.
func BenchmarkWorkloadStream(b *testing.B) {
	e := env(b)
	tr, err := e.Trace()
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.Builder{}.Stream(tr, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src(func(workload.Invocation) bool {
			n++
			return true
		})
	}
	b.StopTimer()
	if n == 0 {
		b.Fatal("empty workload")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/inv")
}

// BenchmarkKernelAdmitRun times one server's kernel the way the fleet
// engines drive it: each op admits one 30 s chunk of arrivals in arrival
// order, then runs the machine to the chunk's end. The chunk is ~70% of
// an 8-core hybrid server's capacity, repeated op after op, so the
// machine reaches a steady state in which admission, the event loop and
// the pooled tasks must not allocate. ns/event is the kernel event
// loop's cost per event, policy work included.
func BenchmarkKernelAdmitRun(b *testing.B) {
	const chunk = 30 * time.Second
	cfg := trace.DefaultConfig()
	cfg.Seed = 1
	cfg.Minutes = 1
	cfg.RateScale = 1
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// ~6,200 invocations a minute of ~1 s mean work is ~100 busy cores;
	// a 1-in-18 draw leaves ~5.6 of the server's 8.
	src, err := workload.Builder{Downscale: 18}.Stream(tr, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	var invs []workload.Invocation
	for inv := range src {
		if inv.Arrival >= chunk {
			break
		}
		invs = append(invs, inv)
	}
	policy, err := newPolicy(Options{Cores: 8, Scheduler: SchedulerHybrid})
	if err != nil {
		b.Fatal(err)
	}
	m, err := simrun.NewIncremental(simkern.DefaultConfig(8), policy, ghost.Config{}, metrics.NewAccumulator(pricing.Default()))
	if err != nil {
		b.Fatal(err)
	}
	id := simkern.TaskID(0)
	admitRun := func(i int) {
		base := time.Duration(i) * chunk
		for _, inv := range invs {
			inv.Arrival += base
			id++
			if err := m.Admit(m.Pool().Get(inv, id)); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.RunTo(base + chunk); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the pools: the first chunks size the task pool, the event
	// pool and the arrival FIFO.
	const warm = 8
	for i := 0; i < warm; i++ {
		admitRun(i)
	}
	before := m.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitRun(warm + i)
	}
	b.StopTimer()
	events := m.Events() - before
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(len(invs)), "invocations/op")
}

// BenchmarkFacadeSimulate measures the public API end to end.
func BenchmarkFacadeSimulate(b *testing.B) {
	invs, err := BuildWorkload(WorkloadSpec{Minutes: 1, MaxInvocations: 300})
	if err != nil {
		b.Fatal(err)
	}
	for _, sched := range []Scheduler{SchedulerFIFO, SchedulerCFS, SchedulerHybrid} {
		b.Run(strings.ReplaceAll(string(sched), "/", "_"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(Options{Cores: 4, Scheduler: sched}, invs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdStartDispatch measures what the warm-instance model adds to
// the cluster routing path: the same fleet and workload with the model
// off, on (pool bookkeeping per routed invocation), and on with warm-first
// dispatch (a pool scan on every pick). The disabled case doubles as the
// zero-cost check: the model off must price the same as before it existed.
func BenchmarkColdStartDispatch(b *testing.B) {
	invs, err := BuildWorkload(WorkloadSpec{Minutes: 1, MaxInvocations: 2000})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		cs   ColdStartOptions
	}{
		{"disabled", ColdStartOptions{}},
		{"enabled", ColdStartOptions{Latency: DefaultColdStartLatency, KeepAlive: DefaultKeepAlive}},
		{"warm_first", ColdStartOptions{Latency: DefaultColdStartLatency, KeepAlive: DefaultKeepAlive, WarmFirst: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := SimulateCluster(ClusterOptions{
					Servers:        4,
					CoresPerServer: 4,
					Dispatch:       DispatchLeastLoaded,
					Scheduler:      SchedulerFIFO,
					ColdStart:      tc.cs,
				}, invs)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Set.Records) != len(invs) {
					b.Fatalf("simulated %d of %d", len(res.Set.Records), len(invs))
				}
			}
			b.ReportMetric(float64(len(invs)), "invocations")
		})
	}
}

// BenchmarkDispatchPick isolates one routing decision — Pick plus the
// booking that updates the load index — for the load-dependent policies
// across fleet sizes. The pre-index scans were O(servers) per pick, so
// the 10k-server rows ran ~100× the 100-server rows; with the fleet load
// index (DESIGN.md §12) the per-pick cost must stay near-flat
// (O(cores·log servers)), which is the sub-linearity this benchmark
// tracks in BENCH_baseline.json. The synthetic stream keeps ~70% of
// lanes busy in steady state at every fleet size so picks always walk
// populated busy buckets.
func BenchmarkDispatchPick(b *testing.B) {
	const cores = 8
	policies := []struct {
		name      string
		dispatch  Dispatch
		warmFirst bool
	}{
		{"least-loaded", DispatchLeastLoaded, false},
		{"join-idle-queue", DispatchJoinIdleQueue, false},
		{"warm-first", DispatchLeastLoaded, true},
	}
	for _, tc := range policies {
		for _, servers := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/%dservers", tc.name, servers), func(b *testing.B) {
				model := cluster.NewFleetModel(servers, cores)
				// Steady ~70% lane utilization: mean demand scales with the
				// lane count so fleet sizes compare pick cost, not load.
				interarrival := 10 * time.Microsecond
				meanDemand := time.Duration(float64(servers*cores) * float64(interarrival) * 0.7)
				var cfg cluster.ColdStartConfig
				if tc.warmFirst {
					// Keep-alive scaled to the stream (not DefaultKeepAlive,
					// which never expires within a benchmark run and would
					// grow per-server pools with b.N, timing pool scans
					// instead of picks): ~4 demand lengths keeps a bounded,
					// fleet-size-invariant warm population per server.
					cfg = cluster.ColdStartConfig{
						Latency:   meanDemand / 10,
						KeepAlive: 4 * meanDemand,
						WarmFirst: true,
					}
				}
				pools := cluster.NewWarmPools(cfg, servers)
				disp, err := cluster.NewDispatcher(cluster.Dispatch(tc.dispatch), 1, model)
				if err != nil {
					b.Fatal(err)
				}
				if tc.warmFirst {
					disp = cluster.WarmFirstDispatcher(disp, pools, model)
				}
				candidates := make([]int, servers)
				for s := range candidates {
					candidates[s] = s
				}
				rng := rand.New(rand.NewSource(9))
				now := time.Duration(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += interarrival
					inv := workload.Invocation{
						FuncID:   rng.Intn(512) + 1,
						Arrival:  now,
						Duration: meanDemand/2 + time.Duration(rng.Int63n(int64(meanDemand))),
						MemMB:    128,
					}
					s := disp.Pick(inv, candidates)
					if !cfg.Enabled() {
						model.Assign(s, inv)
						continue
					}
					var cold time.Duration
					if pools.IsCold(s, inv, inv.Arrival) {
						cold = cfg.Latency
					}
					finish := model.AssignDemand(s, inv.Arrival, inv.Duration+cold)
					pools.Book(s, inv, inv.Arrival, finish, cold > 0)
				}
			})
		}
	}
}
