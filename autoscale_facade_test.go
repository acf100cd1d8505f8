package faassched

// Facade coverage for the elastic fleet: the windowed statistics path
// (SimulateAutoscaled), its agreement with the exact path, and option
// validation. The bit-for-bit pinned-fleet equivalence lives in
// golden_test.go; the controller invariants in internal/autoscale.

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/pricing"
)

func autoscaleWorkload(t *testing.T) []Invocation {
	t.Helper()
	invs, err := BuildWorkload(WorkloadSpec{Seed: 1, Minutes: 2, MaxInvocations: 1200})
	if err != nil {
		t.Fatal(err)
	}
	return invs
}

func TestSimulateAutoscaledWindowedStats(t *testing.T) {
	invs := autoscaleWorkload(t)
	opts := AutoscaleOptions{
		MinServers: 1, MaxServers: 3, CoresPerServer: 4,
		Scheduler:     SchedulerHybrid,
		ScalePolicy:   ScaleQueueDepth,
		SpinUp:        5 * time.Second,
		MetricsWindow: 30 * time.Second,
	}
	stats, err := SimulateAutoscaled(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed+stats.Failed != len(invs) {
		t.Fatalf("retired %d+%d of %d invocations", stats.Completed, stats.Failed, len(invs))
	}
	if stats.WindowWidth() != 30*time.Second {
		t.Errorf("window width %v", stats.WindowWidth())
	}
	if stats.WindowCount() < 1 {
		t.Fatalf("window count %d", stats.WindowCount())
	}
	// Windows partition the completions: per-window counts must sum to the
	// whole-run total, and so must the window costs.
	n, cost := 0, 0.0
	for i := 0; i < stats.WindowCount(); i++ {
		n += stats.Window(i).Completed()
		cost += stats.Window(i).Cost()
	}
	if n != stats.Completed {
		t.Errorf("window counts sum to %d, want %d", n, stats.Completed)
	}
	if diff := cost - stats.CostUSD; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("window costs sum to %v, want %v", cost, stats.CostUSD)
	}
	if stats.ServerSeconds <= 0 || stats.InfraCostUSD <= 0 {
		t.Errorf("infra ledger empty: %v server-seconds, $%v", stats.ServerSeconds, stats.InfraCostUSD)
	}
	// Billed peak may transiently exceed MaxServers by a draining tail,
	// but never the launch count.
	if stats.PeakServers < 1 || stats.PeakServers > stats.Launched {
		t.Errorf("peak %d outside [1, launched=%d]", stats.PeakServers, stats.Launched)
	}
	if got := stats.ServerSecondsIn(0, stats.Makespan+time.Minute); got < stats.ServerSeconds-1e-9 {
		t.Errorf("whole-run ServerSecondsIn %v < total %v", got, stats.ServerSeconds)
	}
	if stats.Timeline(8) == "" || stats.Summary() == "" {
		t.Error("empty timeline or summary")
	}
	if len(stats.Events) == 0 || len(stats.Servers) != stats.Launched {
		t.Errorf("timeline has %d events, %d servers for %d launches",
			len(stats.Events), len(stats.Servers), stats.Launched)
	}
	if _, err := stats.Total().P99(Turnaround); err != nil {
		t.Errorf("total p99: %v", err)
	}
}

// TestAutoscaledWindowedMatchesExact: the windowed and exact paths drive
// the identical simulation; only the sink differs. Scalar observables
// must agree exactly.
func TestAutoscaledWindowedMatchesExact(t *testing.T) {
	invs := autoscaleWorkload(t)
	opts := AutoscaleOptions{
		MinServers: 1, MaxServers: 3, CoresPerServer: 4,
		Scheduler: SchedulerCFS, ScalePolicy: ScaleTargetUtilization,
		SpinUp: 5 * time.Second,
	}
	win, err := SimulateAutoscaled(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SimulateAutoscaledExact(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if win.Makespan != exact.Makespan || win.Preemptions != exact.Preemptions {
		t.Errorf("windowed %v/%d != exact %v/%d",
			win.Makespan, win.Preemptions, exact.Makespan, exact.Preemptions)
	}
	if win.Completed != len(exact.Set.Records)-exact.Set.FailedCount() {
		t.Errorf("windowed completed %d != exact %d", win.Completed, len(exact.Set.Records))
	}
	if len(exact.Assignment) != len(invs) {
		t.Errorf("exact assignment covers %d of %d", len(exact.Assignment), len(invs))
	}
	if exactCost := exact.Set.Cost(pricing.Default()); !approxEq(win.CostUSD, exactCost) {
		t.Errorf("windowed cost %v != exact %v", win.CostUSD, exactCost)
	}
}

// TestAutoscaledExactReportsFaults: the exact elastic path reports the
// same fault counters as the windowed one under a crash plan.
func TestAutoscaledExactReportsFaults(t *testing.T) {
	invs := goldenWorkload(t)
	opts := AutoscaleOptions{
		MinServers: 2, MaxServers: 4, CoresPerServer: 4,
		Dispatch: DispatchLeastLoaded, Scheduler: SchedulerHybrid, Seed: 1,
		SpinUp: 2 * time.Second, ScalePolicy: ScaleQueueDepth,
		Faults: crashPlan(),
	}
	win, err := SimulateAutoscaled(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SimulateAutoscaledExact(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if win.Faults.Crashes == 0 {
		t.Fatalf("crash plan never fired: %+v", win.Faults)
	}
	if exact.Faults != win.Faults {
		t.Errorf("exact path faults %+v, windowed %+v", exact.Faults, win.Faults)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestAutoscaleOptionValidation(t *testing.T) {
	invs := autoscaleWorkload(t)
	cases := []struct {
		name string
		opts AutoscaleOptions
	}{
		{"max below min", AutoscaleOptions{MinServers: 4, MaxServers: 2}},
		{"one core", AutoscaleOptions{CoresPerServer: 1}},
		{"unknown scheduler", AutoscaleOptions{Scheduler: "bogus"}},
		{"unknown dispatch", AutoscaleOptions{Dispatch: "bogus"}},
		{"unknown scale policy", AutoscaleOptions{ScalePolicy: "bogus"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := SimulateAutoscaled(tc.opts, SliceSource(invs)); err == nil {
				t.Errorf("%s accepted by SimulateAutoscaled", tc.name)
			}
			if _, err := SimulateAutoscaledExact(tc.opts, SliceSource(invs)); err == nil {
				t.Errorf("%s accepted by SimulateAutoscaledExact", tc.name)
			}
		})
	}
	if _, err := SimulateAutoscaled(AutoscaleOptions{}, SliceSource(nil)); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestPinnedAutoscaledSharesMatchCluster: pinned to MinServers ==
// MaxServers == 3, the elastic fleet reports every server's whole share
// as the fixed fleet does, enclave, kernel and fault-machine counters
// included, on the golden matrix's timeout fleet, where timeouts kill.
func TestPinnedAutoscaledSharesMatchCluster(t *testing.T) {
	invs := goldenWorkload(t)
	var opts ClusterOptions
	for _, f := range recordFleets() {
		if f.key == "records/hybrid/timeout" {
			opts = f.opts
		}
	}
	want, err := SimulateCluster(opts, invs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateAutoscaledExact(AutoscaleOptions{
		MinServers: opts.Servers, MaxServers: opts.Servers, CoresPerServer: opts.CoresPerServer,
		Dispatch: opts.Dispatch, Scheduler: opts.Scheduler, Seed: opts.Seed, Faults: opts.Faults,
	}, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerServer) != len(want.PerServer) {
		t.Fatalf("%d servers, want %d", len(got.PerServer), len(want.PerServer))
	}
	events, kills := false, false
	for s, ws := range want.PerServer {
		if gs := got.PerServer[s]; gs != ws {
			t.Errorf("server %d: elastic share %+v, fixed %+v", s, gs, ws)
		}
		events = events || ws.Events > 0
		kills = kills || ws.Faults.Kills > 0
	}
	if !events || !kills {
		t.Fatalf("no server scheduled kernel events (%t) or killed a task (%t): the comparison is vacuous", events, kills)
	}
}
