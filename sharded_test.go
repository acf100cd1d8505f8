package faassched

// Sharded execution must be invisible. The fleet engine runs every
// server's share under lazy admission, in watermark steps, on shard
// worker goroutines; none of that may show in the result. The pre-seeded
// oracle below replays each server's share the simplest way — every task
// added before the clock starts, records collected at the end — and the
// engine must match it bit for bit, at every shard count, on inputs with
// idle gaps far longer than a watermark step. The committed golden
// digests pin the same bytes.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

// preSeeded is the fleet engine's test oracle. It takes res's routing —
// the Assignment and each record's cold-start latency — runs every
// server's share fully pre-seeded through simrun.ExecStats, collects
// the records, and returns the fleet result those runs make. The
// engine's result must digest equal to it. Fault plans are out of its
// reach: kills and retries need the engine's fault machines.
func preSeeded(t *testing.T, opts ClusterOptions, invs []Invocation, res *ClusterResult) *ClusterResult {
	t.Helper()
	opts, cfg, err := clusterConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Records) != len(invs) || len(res.Assignment) != len(invs) {
		t.Fatalf("%d records and %d assignments for %d invocations",
			len(res.Set.Records), len(res.Assignment), len(invs))
	}
	shares := make([][]*simkern.Task, opts.Servers)
	for i, inv := range invs {
		task := workload.Task(inv, simkern.TaskID(i+1))
		if cold := res.Set.Records[i].ColdStart; cold > 0 {
			task.Work += cold
			task.ColdStart = cold
		}
		shares[res.Assignment[i]] = append(shares[res.Assignment[i]], task)
	}
	out := &ClusterResult{
		Result:         Result{Scheduler: opts.Scheduler},
		Dispatch:       opts.Dispatch,
		Servers:        opts.Servers,
		CoresPerServer: opts.CoresPerServer,
		PerServer:      make([]ServerResult, opts.Servers),
		Assignment:     res.Assignment,
	}
	for s, tasks := range shares {
		sr := &out.PerServer[s]
		sr.Server, sr.Invocations = s, len(tasks)
		if len(tasks) == 0 {
			continue
		}
		k, err := simrun.ExecStats(cfg.Kernel, cfg.Policy(), ghost.Config{}, simrun.AddTasks(tasks), nil)
		if err != nil {
			t.Fatalf("pre-seeded server %d: %v", s, err)
		}
		sr.Set = metrics.Collect(k)
		sr.Makespan, sr.Preemptions = k.Makespan(), sr.Set.TotalPreemptions()
		out.Set.Records = append(out.Set.Records, sr.Set.Records...)
		out.Makespan = max(out.Makespan, sr.Makespan)
		out.Preemptions += sr.Preemptions
	}
	sort.Slice(out.Set.Records, func(i, j int) bool { return out.Set.Records[i].ID < out.Set.Records[j].ID })
	return out
}

// requirePreSeeded fails unless res digests equal to the pre-seeded
// oracle's replay of its routing, naming the first differing record.
func requirePreSeeded(t *testing.T, name string, opts ClusterOptions, invs []Invocation, res *ClusterResult) {
	t.Helper()
	want := preSeeded(t, opts, invs, res)
	if digestCluster(res) == digestCluster(want) {
		return
	}
	for i, r := range want.Set.Records {
		if res.Set.Records[i] != r {
			t.Fatalf("%s: record %d differs:\n  engine     %+v\n  pre-seeded %+v", name, i, res.Set.Records[i], r)
		}
	}
	t.Fatalf("%s: records agree but the fleet aggregates or per-server shape differ from the pre-seeded runs", name)
}

// idleGapWorkload is BuildWorkload{Seed: 1, Minutes: 2,
// MaxInvocations: 800} followed by two copies of itself starting at 3
// and 7 minutes: the fleet drains fully for a minute and then for two,
// across many watermark steps.
func idleGapWorkload(t *testing.T) []Invocation {
	t.Helper()
	base, err := BuildWorkload(WorkloadSpec{Seed: 1, Minutes: 2, MaxInvocations: 800})
	if err != nil {
		t.Fatal(err)
	}
	out := append([]Invocation(nil), base...)
	for _, shift := range []time.Duration{3 * time.Minute, 7 * time.Minute} {
		for _, inv := range base {
			inv.Arrival += shift
			out = append(out, inv)
		}
	}
	return out
}

// TestIdleGapFleetMatchesPreSeeded runs every scheduler × dispatch over
// a workload with minute-long idle gaps on a 4×4-core fleet. Each
// server's agent-tick grid, monitor and sampler must live through the
// gaps exactly as in a pre-seeded run of its share, so both fixed-fleet
// entry points equal the pre-seeded oracle: SimulateCluster record for
// record, SimulateShardedReplay on makespan, execution and cost.
func TestIdleGapFleetMatchesPreSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("the scheduler × dispatch idle-gap matrix is not short")
	}
	t.Parallel()
	invs := idleGapWorkload(t)
	for _, sched := range Schedulers() {
		for _, d := range Dispatches() {
			name := fmt.Sprintf("%s/%s", sched, d)
			opts := ClusterOptions{Servers: 4, CoresPerServer: 4, Dispatch: d, Scheduler: sched, Seed: 1}
			res, err := SimulateCluster(opts, invs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requirePreSeeded(t, name, opts, invs, res)
			rep, err := SimulateShardedReplay(opts, SliceSource(invs))
			if err != nil {
				t.Fatalf("%s replay: %v", name, err)
			}
			tot := rep.Total()
			if rep.Makespan != res.Makespan || tot.TotalExecution() != res.Set.TotalExecution() ||
				tot.TotalPreemptions() != res.Preemptions {
				t.Errorf("%s: replay makespan %v execution %v preemptions %d, pre-seeded %v, %v and %d", name,
					rep.Makespan, tot.TotalExecution(), tot.TotalPreemptions(),
					res.Makespan, res.Set.TotalExecution(), res.Preemptions)
			}
		}
	}
}

// committedDigests loads testdata/golden_digests.json.
func committedDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardedMergeMatchesFlat runs the fleet half of the golden matrix
// at shard counts 1, 3 and 7 over the 3-server fleet, plain and with the
// fault seam threaded, and requires every digest to equal the committed
// one, which the pre-seeded oracle reproduces (TestGoldenDigests).
func TestShardedMergeMatchesFlat(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	want := committedDigests(t)
	check := func(key, name string, opts ClusterOptions) {
		t.Helper()
		cres, err := SimulateCluster(opts, invs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := digestCluster(cres); got != want[key] {
			t.Errorf("%s: digest %.12s… != committed %.12s… (%s)", name, got, want[key], key)
		}
	}
	for _, shards := range []int{1, 3, 7} {
		// With the fault seam threaded and an empty plan (Instrument:
		// true — machines and routing hooks live), every digest must
		// stay untouched too (DESIGN.md §14).
		for _, faults := range []FaultOptions{{}, {Instrument: true}} {
			flow := "plain"
			if faults.Instrument {
				flow = "instrumented"
			}
			for _, d := range Dispatches() {
				check("cluster/hybrid/"+string(d),
					fmt.Sprintf("%s/hybrid/%s/shards=%d", flow, d, shards),
					ClusterOptions{
						Servers: 3, CoresPerServer: 4, Dispatch: d, Scheduler: SchedulerHybrid,
						Seed: 1, Shards: shards, Faults: faults,
					})
			}
			check("cluster/cfs/least-loaded",
				fmt.Sprintf("%s/cfs/least-loaded/shards=%d", flow, shards),
				ClusterOptions{
					Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS,
					Seed: 1, Shards: shards, Faults: faults,
				})
		}
	}
}

// TestTenKServerShardDigests is the at-scale form of the digest claim:
// a 10,000-server fleet routed by the indexed dispatchers produces the
// same digest at the default shard count and at shards {1, 7}. The committed golden file pins
// the 3-server matrix; this pins that the load index stays exact at the
// fleet size it exists for, for both policies it serves (least-loaded
// and join-idle-queue — warm-first rides the same index paths under
// TestDispatcherMatchesNaivePick).
func TestTenKServerShardDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-server digest runs are not short")
	}
	t.Parallel()
	invs, err := BuildWorkload(WorkloadSpec{Seed: 7, Minutes: 2, MaxInvocations: 30000})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dispatch{DispatchLeastLoaded, DispatchJoinIdleQueue} {
		opts := ClusterOptions{
			Servers: 10000, CoresPerServer: 2, Dispatch: d,
			Scheduler: SchedulerHybrid, Seed: 1,
		}
		ref, err := SimulateCluster(opts, invs)
		if err != nil {
			t.Fatalf("%s default shards: %v", d, err)
		}
		want := digestCluster(ref)
		for _, shards := range []int{1, 7} {
			opts.Shards = shards
			res, err := SimulateCluster(opts, invs)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", d, shards, err)
			}
			if got := digestCluster(res); got != want {
				t.Errorf("%s shards=%d: digest %.12s… != default shards' %.12s…", d, shards, got, want)
			}
		}
	}
}

// TestShardedReplayMatchesCluster: the facade's sharded windowed replay
// must agree with SimulateCluster on the observables an accumulator
// keeps — completions, makespan, cost — for the same fleet and workload.
func TestShardedReplayMatchesCluster(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	opts := ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchRoundRobin,
		Scheduler: SchedulerHybrid, Seed: 1,
	}
	flat, err := SimulateCluster(opts, invs)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 3
	opts.MetricsWindow = 10 * time.Second
	stats, err := SimulateShardedReplay(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invocations != len(invs) {
		t.Errorf("replay routed %d invocations, want %d", stats.Invocations, len(invs))
	}
	if stats.Total().Completed() != len(flat.Set.Records) {
		t.Errorf("replay completed %d, cluster %d", stats.Total().Completed(), len(flat.Set.Records))
	}
	if stats.Makespan != flat.Makespan {
		t.Errorf("replay makespan %v, cluster %v", stats.Makespan, flat.Makespan)
	}
	wantCost := flat.CostUSD()
	if got := stats.Total().Cost(); got < wantCost*0.999999 || got > wantCost*1.000001 {
		t.Errorf("replay cost %v, cluster %v", got, wantCost)
	}
	if stats.Summary() == "" || stats.WindowCount() == 0 || stats.WindowWidth() != 10*time.Second {
		t.Error("replay stats accessors broken")
	}
	if _, err := SimulateShardedReplay(ClusterOptions{Scheduler: "bogus"}, SliceSource(invs)); err == nil {
		t.Error("bad scheduler accepted")
	}
}

// TestShardedReplayShardScope pins what SimulateShardedReplay promises
// across shard counts. Everything counted — invocations, completions,
// preemptions, execution, kernel and delegation counters, makespan, and
// every window's histograms — is identical at Shards 1, 3 and 8. Cost is
// a float64 each shard sums in its own completion order before the
// shards merge, so its last bits depend on the partition; it must agree
// to within rounding.
func TestShardedReplayShardScope(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replays at three shard counts are not short")
	}
	t.Parallel()
	cfg := trace.DefaultConfig()
	cfg.Seed = 1
	cfg.Minutes = 10
	cfg.RateScale = 1
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(shards int) *ShardedStats {
		t.Helper()
		src, err := workload.Builder{Downscale: 1}.Stream(tr, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := SimulateShardedReplay(ClusterOptions{
			Servers: 24, CoresPerServer: 8, Dispatch: DispatchLeastLoaded,
			Scheduler: SchedulerHybrid, Seed: 1, Shards: shards,
			MetricsWindow: time.Minute,
		}, Source(src))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// counted renders every integer-valued observable of one accumulator,
	// histograms included (through a grid of quantiles per metric).
	counted := func(a *metrics.Accumulator) string {
		s := fmt.Sprintf("completed=%d failed=%d preempt=%d exec=%d cold=%d giveups=%d wasted=%d",
			a.Completed(), a.FailedCount(), a.TotalPreemptions(), a.TotalExecution(),
			a.ColdStarts(), a.GiveUps(), a.WastedCPU())
		if a.Completed() == 0 {
			return s
		}
		for _, m := range []Metric{Execution, Response, Turnaround} {
			for q := 0.05; q < 1; q += 0.05 {
				v, err := a.Quantile(m, q)
				if err != nil {
					t.Fatal(err)
				}
				s += fmt.Sprintf(" %v@%.2f=%x", m, q, math.Float64bits(v))
			}
		}
		return s
	}
	closeCost := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

	ref := replay(1)
	if ref.Total().Completed() == 0 || ref.WindowCount() < 10 {
		t.Fatalf("degenerate replay: %d completions over %d windows", ref.Total().Completed(), ref.WindowCount())
	}
	for _, shards := range []int{3, 8} {
		got := replay(shards)
		if got.Shards != shards {
			t.Fatalf("ran %d shards, want %d", got.Shards, shards)
		}
		if got.Invocations != ref.Invocations || got.Makespan != ref.Makespan ||
			got.KernelEvents != ref.KernelEvents || got.Ghost != ref.Ghost || got.Faults != ref.Faults {
			t.Errorf("shards=%d: fleet counters differ from shards=1:\n got %+v\nwant %+v", shards, got, ref)
		}
		if got.WindowCount() != ref.WindowCount() {
			t.Fatalf("shards=%d: %d windows, shards=1 %d", shards, got.WindowCount(), ref.WindowCount())
		}
		if g, w := counted(got.Total()), counted(ref.Total()); g != w {
			t.Errorf("shards=%d: totals differ:\n got %s\nwant %s", shards, g, w)
		}
		if g, w := got.Total().Cost(), ref.Total().Cost(); !closeCost(g, w) {
			t.Errorf("shards=%d: cost %v, shards=1 %v: beyond rounding", shards, g, w)
		}
		for i := 0; i < ref.WindowCount(); i++ {
			if g, w := counted(got.Window(i)), counted(ref.Window(i)); g != w {
				t.Errorf("shards=%d window %d differs:\n got %s\nwant %s", shards, i, g, w)
			}
			if g, w := got.Window(i).Cost(), ref.Window(i).Cost(); !closeCost(g, w) {
				t.Errorf("shards=%d window %d: cost %v, shards=1 %v: beyond rounding", shards, i, g, w)
			}
		}
		t.Logf("shards=%d cost bits %x (shards=1 %x)", shards,
			math.Float64bits(got.Total().Cost()), math.Float64bits(ref.Total().Cost()))
	}
}
