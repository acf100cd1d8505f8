package faassched

import (
	"strings"
	"testing"
	"time"
)

// smallWorkload sizes down further in -short mode: fewer invocations and a
// one-minute span, which is what bounds the simulated-time tick work.
func smallWorkload(t *testing.T) []Invocation {
	t.Helper()
	spec := WorkloadSpec{Minutes: 2, MaxInvocations: 300}
	if testing.Short() {
		spec = WorkloadSpec{Minutes: 1, MaxInvocations: 150}
	}
	invs, err := BuildWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) == 0 {
		t.Fatal("empty workload")
	}
	return invs
}

func TestBuildWorkloadValidation(t *testing.T) {
	if _, err := BuildWorkload(WorkloadSpec{Minutes: 99}); err == nil {
		t.Error("bad minutes accepted")
	}
	a, err := BuildWorkload(WorkloadSpec{Minutes: 1, MaxInvocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(WorkloadSpec{Minutes: 1, MaxInvocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Error("workload construction not deterministic")
	}
}

func TestSimulateEverySchedulerCompletes(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, s := range Schedulers() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			res, err := Simulate(Options{Cores: 4, Scheduler: s}, invs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Set.Completed()) != len(invs) {
				t.Fatalf("completed %d of %d", len(res.Set.Completed()), len(invs))
			}
			if res.Makespan <= 0 {
				t.Error("zero makespan")
			}
			if !strings.Contains(res.Summary(), string(s)) {
				t.Error("summary missing scheduler name")
			}
			if _, err := res.CDF(Execution); err != nil {
				t.Error(err)
			}
			if _, err := res.P99Seconds(Response); err != nil {
				t.Error(err)
			}
			if res.CostUSD() <= 0 || res.CostAtUniformMemoryUSD(1024) <= 0 {
				t.Error("non-positive cost")
			}
		})
	}
}

func TestSimulateValidation(t *testing.T) {
	invs := smallWorkload(t)
	cases := []struct {
		name string
		opts Options
		invs []Invocation
	}{
		{"unknown scheduler", Options{Scheduler: "bogus"}, invs},
		{"1 core", Options{Cores: 1}, invs},
		{"negative cores", Options{Cores: -4}, invs},
		{"empty workload", Options{}, nil},
		{"hybrid with no CFS cores", Options{Scheduler: SchedulerHybrid, Cores: 4, FIFOCores: 4}, invs},
		{"hybrid with FIFO overflow", Options{Scheduler: SchedulerHybrid, Cores: 4, FIFOCores: 9}, invs},
		{"negative time limit", Options{Scheduler: SchedulerHybrid, Cores: 4, TimeLimit: -time.Second}, invs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Simulate(tc.opts, tc.invs); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestBuildWorkloadMinutesValidation(t *testing.T) {
	for _, minutes := range []int{-1, 11, 99} {
		if _, err := BuildWorkload(WorkloadSpec{Minutes: minutes}); err == nil {
			t.Errorf("Minutes=%d accepted", minutes)
		}
	}
}

// TestSimulateDeterministic: same seed + same Options must produce an
// identical Summary across two runs, for every scheduler.
func TestSimulateDeterministic(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, s := range Schedulers() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			run := func() string {
				res, err := Simulate(Options{Cores: 4, Scheduler: s}, invs)
				if err != nil {
					t.Fatal(err)
				}
				return res.Summary()
			}
			if a, b := run(), run(); a != b {
				t.Errorf("nondeterministic result:\n%s\n%s", a, b)
			}
		})
	}
}

// TestSimulateClusterValidation: both fixed-fleet entry points resolve
// ClusterOptions through one resolver and run one engine, so they reject
// the same invalid options with the same error.
func TestSimulateClusterValidation(t *testing.T) {
	invs := smallWorkload(t)
	cases := []struct {
		name string
		opts ClusterOptions
	}{
		{"negative servers", ClusterOptions{Servers: -1}},
		{"1 core per server", ClusterOptions{CoresPerServer: 1}},
		{"1-core FIFO fleet", ClusterOptions{CoresPerServer: 1, Scheduler: SchedulerFIFO}},
		{"unknown scheduler", ClusterOptions{Scheduler: "bogus"}},
		{"unknown dispatch", ClusterOptions{Dispatch: "bogus"}},
		{"hybrid with no CFS cores", ClusterOptions{CoresPerServer: 4, FIFOCores: 4}},
		{"negative shards", ClusterOptions{Shards: -1}},
		{"negative fault rate", ClusterOptions{Faults: FaultOptions{CrashMTBF: -time.Second}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SimulateCluster(tc.opts, invs)
			if err == nil {
				t.Fatalf("SimulateCluster accepted %s", tc.name)
			}
			_, rerr := SimulateShardedReplay(tc.opts, SliceSource(invs))
			if rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("SimulateShardedReplay: err = %v, SimulateCluster's is %v", rerr, err)
			}
		})
	}
	if _, err := SimulateCluster(ClusterOptions{}, nil); err == nil {
		t.Error("SimulateCluster accepted an empty workload")
	}
	if _, err := SimulateShardedReplay(ClusterOptions{}, SliceSource(nil)); err == nil {
		t.Error("SimulateShardedReplay accepted an empty workload")
	}
}

func TestSimulateClusterEverySchedulerAndDispatch(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, s := range Schedulers() {
		for _, d := range Dispatches() {
			s, d := s, d
			t.Run(string(s)+"/"+string(d), func(t *testing.T) {
				t.Parallel()
				res, err := SimulateCluster(ClusterOptions{
					Servers:        3,
					CoresPerServer: 2,
					Scheduler:      s,
					Dispatch:       d,
				}, invs)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(res.Set.Completed()); got != len(invs) {
					t.Fatalf("completed %d of %d", got, len(invs))
				}
				if len(res.PerServer) != 3 || len(res.Assignment) != len(invs) {
					t.Error("missing per-server breakdown or assignment")
				}
				if !strings.Contains(res.Summary(), string(d)) || !strings.Contains(res.Summary(), string(s)) {
					t.Errorf("summary %q missing dispatch/scheduler", res.Summary())
				}
				if res.CostUSD() <= 0 {
					t.Error("non-positive cost")
				}
				if r := res.ImbalanceRatio(); r < 1 {
					t.Errorf("imbalance ratio %.3f < 1", r)
				}
			})
		}
	}
}

// TestSimulateClusterDeterministic: a seeded 16-server fleet must be
// bit-for-bit reproducible despite goroutine-per-server simulation.
func TestSimulateClusterDeterministic(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, d := range Dispatches() {
		d := d
		t.Run(string(d), func(t *testing.T) {
			t.Parallel()
			run := func() string {
				res, err := SimulateCluster(ClusterOptions{
					Servers:        16,
					CoresPerServer: 2,
					Dispatch:       d,
					Scheduler:      SchedulerHybrid,
					Seed:           42,
				}, invs)
				if err != nil {
					t.Fatal(err)
				}
				sum := res.Summary()
				for _, sr := range res.PerServer {
					sum += "|" + sr.Set.Summary()
				}
				for _, s := range res.Assignment {
					sum += string(rune('a' + s))
				}
				return sum
			}
			if a, b := run(), run(); a != b {
				t.Errorf("nondeterministic cluster result for %s:\n%s\n%s", d, a, b)
			}
		})
	}
}

func TestSimulateClusterDefaults(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	res, err := SimulateCluster(ClusterOptions{}, invs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 4 || res.CoresPerServer != 8 {
		t.Errorf("defaults = %d servers × %d cores", res.Servers, res.CoresPerServer)
	}
	if res.Scheduler != SchedulerHybrid || res.Dispatch != DispatchLeastLoaded {
		t.Errorf("defaults = %s, %s", res.Scheduler, res.Dispatch)
	}
}

func TestSimulateDefaultsToHybrid(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	res, err := Simulate(Options{}, invs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != SchedulerHybrid {
		t.Errorf("default scheduler = %s", res.Scheduler)
	}
}

func TestSimulateCostOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: shape assertion needs the full quick workload")
	}
	t.Parallel()
	// The paper's headline through the public API: CFS costs a multiple of
	// the hybrid and of FIFO.
	invs, err := BuildWorkload(WorkloadSpec{Minutes: 2, MaxInvocations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cost := map[Scheduler]float64{}
	for _, s := range []Scheduler{SchedulerFIFO, SchedulerCFS, SchedulerHybrid} {
		res, err := Simulate(Options{Cores: 4, Scheduler: s}, invs)
		if err != nil {
			t.Fatal(err)
		}
		cost[s] = res.CostUSD()
	}
	if !(cost[SchedulerCFS] > 2*cost[SchedulerHybrid]) {
		t.Errorf("CFS cost %.6f should exceed 2x hybrid %.6f", cost[SchedulerCFS], cost[SchedulerHybrid])
	}
	if !(cost[SchedulerCFS] > 2*cost[SchedulerFIFO]) {
		t.Errorf("CFS cost %.6f should exceed 2x FIFO %.6f", cost[SchedulerCFS], cost[SchedulerFIFO])
	}
}

func TestSimulateFirecrackerMode(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	res, err := Simulate(Options{
		Cores:       4,
		Scheduler:   SchedulerHybrid,
		Firecracker: true,
		TimeLimit:   500 * time.Millisecond,
	}, invs)
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchedVMs != len(invs) || res.FailedVMs != 0 {
		t.Errorf("launched=%d failed=%d of %d", res.LaunchedVMs, res.FailedVMs, len(invs))
	}
	// Memory wall: a tiny server fails most launches.
	tiny, err := Simulate(Options{
		Cores:       4,
		Scheduler:   SchedulerCFS,
		Firecracker: true,
		ServerMemMB: 1000,
	}, invs)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.FailedVMs == 0 {
		t.Error("no launch failures despite 1GB server")
	}
	if tiny.LaunchedVMs+tiny.FailedVMs != len(invs) {
		t.Error("VM accounting mismatch")
	}
}

func TestDurationModelExported(t *testing.T) {
	m := DurationModel()
	if m.Duration(36) <= 0 {
		t.Error("bad duration model")
	}
}
