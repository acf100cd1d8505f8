package faassched

// Fault-injection determinism and inertness (DESIGN.md §14). Two claims
// carry the feature: (1) the fault seam is inert — threading it with
// every rate zero (Instrument) reproduces the fault-free byte stream —
// and (2) a non-empty plan is deterministic across shard counts and
// entry points: the exact fleet and the windowed replay derive the
// identical crash/straggler/retry timeline, because every hazard draw is
// a pure function of (fault seed, server index) and crash sweeps enter
// the kernel under the dedicated fault ordering class.

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/metrics"
)

// crashPlan is the non-empty reference plan: crashes, timeouts, and
// retries all active, sized so the 1-minute golden workload sees several
// crash windows per server.
func crashPlan() FaultOptions {
	return FaultOptions{
		Seed:      5,
		CrashMTBF: 20 * time.Second,
		Downtime:  4 * time.Second,
		Timeout:   15 * time.Second,
		Retry:     RetryOptions{MaxAttempts: 3},
	}
}

// TestFaultsDisabledIsInert: Instrument threads machines and routing
// hooks with every rate zero; the record stream must be bit-identical to
// the plain fault-free run and all fault counters zero.
func TestFaultsDisabledIsInert(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	for _, sched := range []Scheduler{SchedulerHybrid, SchedulerCFS} {
		base := ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded,
			Scheduler: sched, Seed: 1,
		}
		plain, err := SimulateCluster(base, invs)
		if err != nil {
			t.Fatalf("%s plain: %v", sched, err)
		}
		base.Faults = FaultOptions{Instrument: true}
		seamed, err := SimulateCluster(base, invs)
		if err != nil {
			t.Fatalf("%s instrumented: %v", sched, err)
		}
		if a, b := digestCluster(plain), digestCluster(seamed); a != b {
			t.Errorf("%s: instrumented seam diverges from plain run:\n  plain %.12s…\n  seam  %.12s…", sched, a, b)
		}
		if seamed.Faults != (FaultStats{}) {
			t.Errorf("%s: inert seam counted faults: %+v", sched, seamed.Faults)
		}
	}
}

// TestFaultDeterminismAcrossShards: with a non-empty crash+timeout+retry
// plan, the fleet at the default shard count and at shard counts 1, 3,
// and 7 must produce identical record streams — and the plan must
// actually fire (crashes, kills, retries, give-ups all nonzero) or the
// equality proves nothing.
func TestFaultDeterminismAcrossShards(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	for _, sched := range []Scheduler{SchedulerHybrid, SchedulerCFS} {
		opts := ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded,
			Scheduler: sched, Seed: 1, Faults: crashPlan(),
		}
		ref, err := SimulateCluster(opts, invs)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if ref.Faults.Crashes == 0 || ref.Faults.Kills == 0 || ref.Faults.Retries == 0 {
			t.Fatalf("%s: plan never fired: %+v", sched, ref.Faults)
		}
		// Every routed invocation retires exactly one final record:
		// completed, or Failed when the retry budget ran out.
		if len(ref.Set.Records) != len(invs) {
			t.Errorf("%s: %d final records for %d invocations", sched, len(ref.Set.Records), len(invs))
		}
		want := digestCluster(ref)
		for _, shards := range []int{1, 3, 7} {
			opts.Shards = shards
			res, err := SimulateCluster(opts, invs)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", sched, shards, err)
			}
			if got := digestCluster(res); got != want {
				t.Errorf("%s shards=%d: digest %.12s… != default shards' %.12s…", sched, shards, got, want)
			}
			if res.Faults != ref.Faults {
				t.Errorf("%s shards=%d: fault stats %+v != default shards' %+v", sched, shards, res.Faults, ref.Faults)
			}
		}
	}
}

// TestPerServerFaultStats: every machine's kills, retries and give-ups
// show in its own ServerResult, and the per-server counters sum to the
// fleet-wide ones.
func TestPerServerFaultStats(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	res, err := SimulateCluster(ClusterOptions{
		Servers: 4, CoresPerServer: 4, Dispatch: DispatchRandom,
		Scheduler: SchedulerHybrid, Seed: 1, Faults: crashPlan(),
	}, invs)
	if err != nil {
		t.Fatal(err)
	}
	var kills, retries, giveUps int64
	for _, sr := range res.PerServer {
		if sr.Invocations > 0 && sr.Faults.Kills == 0 {
			t.Errorf("server %d ran %d invocations through crash windows but reports no kills", sr.Server, sr.Invocations)
		}
		kills += sr.Faults.Kills
		retries += sr.Faults.Retries
		giveUps += sr.Faults.GiveUps
	}
	if kills != res.Faults.Kills || retries != res.Faults.Retries || giveUps != res.Faults.GiveUps {
		t.Errorf("per-server kills/retries/give-ups sum to %d/%d/%d, fleet reports %d/%d/%d",
			kills, retries, giveUps, res.Faults.Kills, res.Faults.Retries, res.Faults.GiveUps)
	}
}

// TestStragglerDeterminismAcrossShards: straggler-only plans (no kills,
// so they run under any scheduler — FIFO included) must also agree
// across shard counts, with the slowdown demonstrably applied.
func TestStragglerDeterminismAcrossShards(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	plan := FaultOptions{
		Seed:              5,
		StragglerMTBF:     15 * time.Second,
		StragglerDuration: 10 * time.Second,
		StragglerFactor:   4,
	}
	opts := ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchRoundRobin,
		Scheduler: SchedulerFIFO, Seed: 1, Faults: plan,
	}
	ref, err := SimulateCluster(opts, invs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Faults.StragglerWindows == 0 {
		t.Fatal("no straggler windows entered")
	}
	// The slowdown must be visible: same fleet without the plan finishes
	// strictly sooner in total execution.
	opts2 := opts
	opts2.Faults = FaultOptions{}
	clean, err := SimulateCluster(opts2, invs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Set.TotalExecution() <= clean.Set.TotalExecution() {
		t.Errorf("straggled execution %v not above clean %v", ref.Set.TotalExecution(), clean.Set.TotalExecution())
	}
	want := digestCluster(ref)
	for _, shards := range []int{1, 3, 7} {
		opts.Shards = shards
		res, err := SimulateCluster(opts, invs)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := digestCluster(res); got != want {
			t.Errorf("shards=%d: digest %.12s… != default shards' %.12s…", shards, got, want)
		}
	}
}

// TestShardedReplayFaultStats: the windowed sharded replay reports the
// same fault counters as the exact sharded fleet on the same plan.
func TestShardedReplayFaultStats(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	opts := ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded,
		Scheduler: SchedulerHybrid, Seed: 1, Faults: crashPlan(),
	}
	ref, err := SimulateCluster(opts, invs)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards, opts.MetricsWindow = 3, 10*time.Second
	rep, err := SimulateShardedReplay(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != ref.Faults {
		t.Errorf("replay fault stats %+v != cluster %+v", rep.Faults, ref.Faults)
	}
	if got, want := rep.Total().Completed()+rep.Total().FailedCount(), len(invs); got != want {
		t.Errorf("replay retired %d records, want %d", got, want)
	}
	if rep.Total().GiveUps() != int(ref.Faults.GiveUps) {
		t.Errorf("replay accumulator give-ups %d != stats %d", rep.Total().GiveUps(), ref.Faults.GiveUps)
	}
}

// TestFaultsRejectNonEvictingKillPlans: crash/timeout plans need the
// scheduler to implement task eviction; round-robin does not, and the
// run must say so instead of silently dropping kills.
func TestFaultsRejectNonEvictingKillPlans(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	_, err := SimulateCluster(ClusterOptions{
		Servers: 2, CoresPerServer: 4, Dispatch: DispatchRoundRobin,
		Scheduler: SchedulerRR, Seed: 1, Faults: crashPlan(),
	}, invs)
	if err == nil {
		t.Error("kill plan accepted under a scheduler with no task eviction")
	}
}

// TestAutoscaleCrashRecovery: terminal crash mode — a crashed server is
// retired at its crash instant, its residents are killed and retried
// elsewhere, a cold replacement launches, and every routed invocation
// still retires exactly one final record. Run twice for determinism.
func TestAutoscaleCrashRecovery(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	opts := AutoscaleOptions{
		MinServers: 2, MaxServers: 4, CoresPerServer: 4,
		Dispatch: DispatchLeastLoaded, Scheduler: SchedulerHybrid, Seed: 1,
		SpinUp: 2 * time.Second, ScalePolicy: ScaleQueueDepth,
		Faults: FaultOptions{
			Seed:      5,
			CrashMTBF: 25 * time.Second,
			Timeout:   15 * time.Second,
			Retry:     RetryOptions{MaxAttempts: 3},
		},
	}
	run := func() *AutoscaleStats {
		t.Helper()
		stats, err := SimulateAutoscaled(opts, SliceSource(invs))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a := run()
	if a.Crashed == 0 {
		t.Fatalf("no server crashed under MTBF %v (faults: %+v)", opts.Faults.CrashMTBF, a.Faults)
	}
	if a.Faults.Kills == 0 || a.Faults.Retries == 0 {
		t.Errorf("crash fired but recovery did not: %+v", a.Faults)
	}
	if got, want := a.Completed+a.Failed, len(invs); got != want {
		t.Errorf("retired %d records (completed %d + failed %d), want %d", got, a.Completed, a.Failed, want)
	}
	if a.Launched <= opts.MinServers && a.Crashed > 0 {
		t.Errorf("crashed %d servers but only launched %d — no replacement", a.Crashed, a.Launched)
	}
	b := run()
	if a.Summary() != b.Summary() || a.Crashed != b.Crashed || a.Faults != b.Faults {
		t.Errorf("autoscaled crash run not deterministic:\n  %s (crashed=%d %+v)\n  %s (crashed=%d %+v)",
			a.Summary(), a.Crashed, a.Faults, b.Summary(), b.Crashed, b.Faults)
	}
}

// TestAutoscaleRejectsStragglers: the terminal-mode autoscaler supports
// crash/timeout/retry only; straggler plans must be rejected up front.
func TestAutoscaleRejectsStragglers(t *testing.T) {
	t.Parallel()
	_, err := SimulateAutoscaled(AutoscaleOptions{
		MinServers: 1, MaxServers: 2, CoresPerServer: 4,
		Scheduler: SchedulerHybrid,
		Faults:    FaultOptions{StragglerMTBF: time.Minute},
	}, SliceSource(nil))
	if err == nil {
		t.Error("straggler plan accepted by the autoscaler")
	}
}

// BenchmarkFaultyReplay drives the streamed fleet under the full
// crash+timeout+retry plan — the bench_smoke.sh regression row for the
// fault layer's hot paths (fault timers, sweep kills, re-admission).
func BenchmarkFaultyReplay(b *testing.B) {
	invs, err := BuildWorkload(WorkloadSpec{Seed: 1, Minutes: 2})
	if err != nil {
		b.Fatal(err)
	}
	opts := ClusterOptions{
		Servers: 8, CoresPerServer: 8, Dispatch: DispatchLeastLoaded,
		Scheduler: SchedulerHybrid, Seed: 1,
		Faults: FaultOptions{
			Seed:      3,
			CrashMTBF: 30 * time.Second,
			Downtime:  5 * time.Second,
			Timeout:   20 * time.Second,
			Retry:     RetryOptions{MaxAttempts: 3},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *ClusterResult
	for i := 0; i < b.N; i++ {
		res, err := SimulateCluster(opts, invs)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Faults.Kills), "kills/run")
	b.ReportMetric(float64(last.Faults.Retries), "retries/run")
}

// serverRecords reads each server's records out of an exact fleet's
// Set: the records whose Assignment entry is that server, in increasing
// ID order. The fleet keeps no per-server copy of them.
func serverRecords(r *ClusterResult) [][]metrics.Record {
	per := make([][]metrics.Record, len(r.PerServer))
	for k, rec := range r.Set.Records {
		s := r.Assignment[k]
		per[s] = append(per[s], rec)
	}
	return per
}

// TestPerServerRecordsInIDOrder: exact-record fleets promise Result.Set
// as record ID k at index k-1, and every server's records, read from it
// through the assignment, agree with the server's own counters: its
// routed invocations, retired records, preemptions and busy time. Pinned
// for the fixed fleet under a crash/retry plan and for the elastic fleet,
// with and without a terminal crash plan.
func TestPerServerRecordsInIDOrder(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	check := func(name string, res *ClusterResult) {
		t.Helper()
		if len(res.Set.Records) != len(invs) || len(res.Assignment) != len(invs) {
			t.Fatalf("%s: %d records and %d assignments for %d invocations", name, len(res.Set.Records), len(res.Assignment), len(invs))
		}
		for k, r := range res.Set.Records {
			if r.ID != uint64(k+1) {
				t.Fatalf("%s: Set.Records[%d].ID = %d, want %d", name, k, r.ID, k+1)
			}
		}
		for s, recs := range serverRecords(res) {
			sr := res.PerServer[s]
			set := metrics.Set{Records: recs}
			if len(recs) != sr.Invocations || set.TotalExecution() != sr.Busy || set.TotalPreemptions() != sr.Preemptions {
				t.Errorf("%s: server %d holds %d records with busy %v and %d preemptions; it reports %d, %v and %d",
					name, s, len(recs), set.TotalExecution(), set.TotalPreemptions(), sr.Invocations, sr.Busy, sr.Preemptions)
			}
		}
	}

	fixed, err := SimulateCluster(ClusterOptions{
		Servers: 4, CoresPerServer: 4, Dispatch: DispatchRandom,
		Scheduler: SchedulerHybrid, Seed: 1, Faults: crashPlan(),
	}, invs)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Faults.Kills == 0 || fixed.Faults.Retries == 0 {
		t.Fatalf("fixed fleet: plan never fired: %+v", fixed.Faults)
	}
	check("fixed fleet with crashes", fixed)

	elastic := AutoscaleOptions{
		MinServers: 2, MaxServers: 4, CoresPerServer: 4,
		Dispatch: DispatchLeastLoaded, Scheduler: SchedulerHybrid, Seed: 1,
		SpinUp: 2 * time.Second, ScalePolicy: ScaleQueueDepth,
	}
	res, err := SimulateAutoscaledExact(elastic, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	check("elastic fleet", res)
	elastic.Faults = FaultOptions{
		Seed:      5,
		CrashMTBF: 25 * time.Second,
		Timeout:   15 * time.Second,
		Retry:     RetryOptions{MaxAttempts: 3},
	}
	if res, err = SimulateAutoscaledExact(elastic, SliceSource(invs)); err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, r := range res.Set.Records {
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("elastic fleet: crash plan retried nothing")
	}
	check("elastic fleet with crashes", res)
}
