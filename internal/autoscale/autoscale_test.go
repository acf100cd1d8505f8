package autoscale

import (
	"fmt"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

func fifoFactory() ghost.Policy { return fifo.New(fifo.Config{}) }
func cfsFactory() ghost.Policy  { return cfs.New(cfs.Params{}) }

// steady builds n invocations arriving every gap with work dur.
func steady(n int, gap, dur time.Duration) []workload.Invocation {
	out := make([]workload.Invocation, n)
	for i := range out {
		out[i] = workload.Invocation{
			Arrival:  time.Duration(i) * gap,
			FibN:     30,
			Duration: dur,
			MemMB:    128,
		}
	}
	return out
}

// burstyWorkload alternates a heavy phase (overload on the Min fleet) and
// a sparse phase (near idle, but with enough arrivals that scale-down
// keeps being evaluated), starting at startAt.
func burstyWorkload(startAt time.Duration, phases int) []workload.Invocation {
	var out []workload.Invocation
	at := startAt
	for p := 0; p < phases; p++ {
		// Heavy: 300 arrivals 1 ms apart, 8 ms of work each — far beyond
		// what Min×cores can absorb.
		for i := 0; i < 300; i++ {
			out = append(out, workload.Invocation{
				Arrival: at, FibN: 30, Duration: 8 * time.Millisecond, MemMB: 128,
			})
			at += time.Millisecond
		}
		// Sparse: 40 arrivals 500 ms apart, 1 ms of work each.
		for i := 0; i < 40; i++ {
			out = append(out, workload.Invocation{
				Arrival: at, FibN: 25, Duration: time.Millisecond, MemMB: 128,
			})
			at += 500 * time.Millisecond
		}
	}
	return out
}

// fastScaleConfig reacts on test (millisecond) time scales.
func fastScaleConfig(min, max int, pol ScalePolicy) Config {
	return Config{
		Min: min, Max: max,
		Policy:       pol,
		SpinUp:       50 * time.Millisecond,
		UpCooldown:   20 * time.Millisecond,
		DownCooldown: 100 * time.Millisecond,
		Kernel:       simkern.DefaultConfig(2),
		Sched:        fifoFactory,
	}
}

func TestConfigValidation(t *testing.T) {
	src := workload.SliceSource(steady(4, time.Millisecond, time.Millisecond))
	base := func() Config { return fastScaleConfig(1, 2, PolicyTargetUtilization) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero min", func(c *Config) { c.Min = 0 }},
		{"max below min", func(c *Config) { c.Min = 4; c.Max = 2 }},
		{"nil sched", func(c *Config) { c.Sched = nil }},
		{"zero cores", func(c *Config) { c.Kernel.Cores = 0 }},
		{"unknown scale policy", func(c *Config) { c.Policy = "bogus" }},
		{"unknown dispatch", func(c *Config) { c.Dispatch = "bogus" }},
		{"negative spin-up", func(c *Config) { c.SpinUp = -time.Second }},
		{"inverted thresholds", func(c *Config) { c.UpThreshold = 0.2; c.DownThreshold = 0.8 }},
		{"util threshold above 1", func(c *Config) { c.UpThreshold = 1.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := Run(cfg, src); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}

	if _, err := Run(base(), workload.SliceSource(nil)); err == nil {
		t.Error("empty workload accepted")
	}
	unsorted := steady(3, time.Millisecond, time.Millisecond)
	unsorted[0].Arrival = 5 * time.Millisecond
	if _, err := Run(base(), workload.SliceSource(unsorted)); err == nil {
		t.Error("unsorted source accepted")
	}
}

// TestPinnedFleetMatchesCluster is the package-level half of the
// min=max golden claim: an autoscaler that cannot scale must reproduce
// the fixed fleet bit for bit — same routing, same per-server
// shares, same records — for every dispatch policy.
func TestPinnedFleetMatchesCluster(t *testing.T) {
	invs := steady(400, 700*time.Microsecond, 4*time.Millisecond)
	for _, d := range cluster.Dispatches() {
		d := d
		t.Run(string(d), func(t *testing.T) {
			t.Parallel()
			want, err := cluster.Simulate(cluster.Config{
				Servers:  3,
				Dispatch: d,
				Seed:     7,
				Kernel:   simkern.DefaultConfig(2),
				Policy:   cfsFactory,
			}, workload.SliceSource(invs))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(Config{
				Min: 3, Max: 3,
				Dispatch:        d,
				Seed:            7,
				Kernel:          simkern.DefaultConfig(2),
				Sched:           cfsFactory,
				TrackAssignment: true,
			}, workload.SliceSource(invs))
			if err != nil {
				t.Fatal(err)
			}
			if got.Routed != len(invs) || got.Completed != len(invs) {
				t.Fatalf("routed %d completed %d, want %d", got.Routed, got.Completed, len(invs))
			}
			if len(got.Assignment) != len(want.Assignment) {
				t.Fatalf("assignment length %d != %d", len(got.Assignment), len(want.Assignment))
			}
			for i := range want.Assignment {
				if got.Assignment[i] != want.Assignment[i] {
					t.Fatalf("assignment[%d] = %d, want %d", i, got.Assignment[i], want.Assignment[i])
				}
			}
			if got.Makespan != want.Makespan || got.Preemptions != want.Preemptions {
				t.Errorf("makespan/preemptions %v/%d, want %v/%d",
					got.Makespan, got.Preemptions, want.Makespan, want.Preemptions)
			}
			for s := range want.PerServer {
				ws, gs := want.PerServer[s], got.Servers[s]
				if gs.Routed != ws.Invocations || gs.Makespan != ws.Makespan || gs.Preemptions != ws.Preemptions {
					t.Fatalf("server %d: routed/makespan/preempt %d/%v/%d, want %d/%v/%d",
						s, gs.Routed, gs.Makespan, gs.Preemptions,
						ws.Invocations, ws.Makespan, ws.Preemptions)
				}
				if len(gs.Set.Records) != len(ws.Set.Records) {
					t.Fatalf("server %d: %d records, want %d", s, len(gs.Set.Records), len(ws.Set.Records))
				}
				for i := range ws.Set.Records {
					if gs.Set.Records[i] != ws.Set.Records[i] {
						t.Fatalf("server %d record %d: %+v != %+v", s, i, gs.Set.Records[i], ws.Set.Records[i])
					}
				}
			}
			// A pinned fleet never scales: exactly Min lifecycle events.
			if got.Launched() != 3 || got.Drained() != 0 || got.PeakServers != 3 {
				t.Errorf("pinned fleet launched=%d drained=%d peak=%d, want 3/0/3",
					got.Launched(), got.Drained(), got.PeakServers)
			}
		})
	}
}

// TestDrainBeforeRetireNeverDrops: through repeated scale-up/scale-down
// cycles, every routed invocation is retired — drained servers finish
// their in-flight share before shutting down.
func TestDrainBeforeRetireNeverDrops(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			invs := burstyWorkload(0, 3)
			res, err := Run(fastScaleConfig(1, 4, pol), workload.SliceSource(invs))
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed+res.Failed != len(invs) {
				t.Fatalf("retired %d+%d of %d invocations", res.Completed, res.Failed, len(invs))
			}
			if res.Launched() <= 1 {
				t.Fatalf("overload never scaled up (launched %d)", res.Launched())
			}
			if res.Drained() == 0 {
				t.Fatalf("idle phases never scaled down (launched %d)", res.Launched())
			}
			total := 0
			for i := range res.Servers {
				sv := &res.Servers[i]
				if sv.Completed+sv.Failed != sv.Routed {
					t.Errorf("server %d retired %d of %d routed", sv.Index, sv.Completed+sv.Failed, sv.Routed)
				}
				if sv.DrainAt != Never && !sv.Canceled && sv.RetireAt < sv.Makespan {
					t.Errorf("server %d retired at %v before its last completion %v", sv.Index, sv.RetireAt, sv.Makespan)
				}
				if sv.Canceled && sv.Routed != 0 {
					t.Errorf("canceled server %d was routed %d invocations", sv.Index, sv.Routed)
				}
				total += sv.Routed
			}
			if total != res.Routed {
				t.Errorf("per-server routed sums to %d, want %d", total, res.Routed)
			}
		})
	}
}

// TestSpinUpDelaysFirstAdmission: no server launched mid-run serves an
// invocation that arrived before its spin-up completed.
func TestSpinUpDelaysFirstAdmission(t *testing.T) {
	cfg := fastScaleConfig(1, 4, PolicyQueueDepth)
	res, err := Run(cfg, workload.SliceSource(burstyWorkload(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched() <= 1 {
		t.Fatal("workload never triggered a launch; test is vacuous")
	}
	for i := range res.Servers {
		sv := &res.Servers[i]
		if sv.Index >= cfg.Min && !sv.Canceled {
			if sv.ReadyAt-sv.LaunchAt != cfg.SpinUp {
				t.Errorf("server %d ready %v after launch, want %v", sv.Index, sv.ReadyAt-sv.LaunchAt, cfg.SpinUp)
			}
		}
		if sv.Set == nil {
			continue
		}
		for _, rec := range sv.Set.Records {
			if rec.Arrival < sv.ReadyAt {
				t.Fatalf("server %d (ready %v) served invocation arriving %v", sv.Index, sv.ReadyAt, rec.Arrival)
			}
		}
	}
}

// TestDeterministicAcrossRuns: identical inputs must give identical scale
// events, assignments, and per-server results regardless of goroutine
// interleaving.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		cfg := fastScaleConfig(1, 4, PolicyTargetUtilization)
		cfg.Dispatch = cluster.DispatchJoinIdleQueue // exercises the seeded fallback
		cfg.TrackAssignment = true
		res, err := Run(cfg, workload.SliceSource(burstyWorkload(0, 2)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a.Events) != fmt.Sprintf("%+v", b.Events) {
		t.Errorf("scale events differ between identical runs:\n%v\n%v", a.Events, b.Events)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("assignment[%d] differs: %d != %d", i, a.Assignment[i], b.Assignment[i])
		}
	}
	for i := range a.Servers {
		as, bs := a.Servers[i], b.Servers[i]
		as.Set, bs.Set = nil, nil
		if as != bs {
			t.Errorf("server %d lifecycle differs:\n%+v\n%+v", i, as, bs)
		}
	}
	if a.ServerSeconds != b.ServerSeconds || a.PeakServers != b.PeakServers {
		t.Errorf("billing differs: %v/%d vs %v/%d", a.ServerSeconds, a.PeakServers, b.ServerSeconds, b.PeakServers)
	}
}

// TestBillingAndTimelineShape sanity-checks the server-seconds ledger
// against the event walk.
func TestBillingAndTimelineShape(t *testing.T) {
	res, err := Run(fastScaleConfig(1, 4, PolicyQueueDepth), workload.SliceSource(burstyWorkload(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSeconds <= 0 {
		t.Fatalf("ServerSeconds = %v", res.ServerSeconds)
	}
	// The whole-run window must account for every billed second.
	if got := res.ServerSecondsIn(0, res.Makespan+time.Hour); got < res.ServerSeconds-1e-9 || got > res.ServerSeconds+1e-9 {
		t.Errorf("ServerSecondsIn(whole run) = %v, want %v", got, res.ServerSeconds)
	}
	if res.MeanServers() < 1 || res.MeanServers() > float64(res.PeakServers) {
		t.Errorf("MeanServers = %v outside [1, peak=%d]", res.MeanServers(), res.PeakServers)
	}
	if res.ActiveAt(0) != 1 {
		t.Errorf("ActiveAt(0) = %d, want the Min floor", res.ActiveAt(0))
	}
	// Billing ends with the run: nothing bills past the fleet makespan.
	for i := range res.Servers {
		if r := res.Servers[i].RetireAt; r > res.Makespan {
			t.Errorf("server %d bills until %v, past makespan %v", i, r, res.Makespan)
		}
	}
	// Event walk: billed active counts stay within [0, launched] and the
	// peak matches. (Billed active may transiently exceed Max by a
	// draining server's execution tail; the serving bound is checked
	// below.)
	peak := 0
	for _, ev := range res.Events {
		if ev.Active < 0 || ev.Active > res.Launched() {
			t.Fatalf("event %+v active outside [0, launched]", ev)
		}
		if ev.Active > peak {
			peak = ev.Active
		}
	}
	if peak != res.PeakServers {
		t.Errorf("event-walk peak %d != PeakServers %d", peak, res.PeakServers)
	}
	// The serving+booting fleet (launch → drain decision, or retire for
	// survivors) never exceeds Max at any lifecycle edge.
	provisionedAt := func(t0 time.Duration) int {
		n := 0
		for i := range res.Servers {
			sv := &res.Servers[i]
			end := sv.RetireAt
			if sv.DrainAt != Never {
				end = sv.DrainAt
			}
			if sv.LaunchAt <= t0 && t0 < end {
				n++
			}
		}
		return n
	}
	for _, ev := range res.Events {
		if p := provisionedAt(ev.Time); p > 4 {
			t.Fatalf("provisioned fleet %d exceeds Max at %v", p, ev.Time)
		}
	}
	if tl := res.Timeline(6); tl == "" {
		t.Error("empty timeline")
	}
	// Retires are last: after the final event everything is shut down
	// except servers alive at makespan (which retire exactly at it).
	last := res.Events[len(res.Events)-1]
	if last.Kind != EventRetire {
		t.Errorf("last event %+v, want a retire", last)
	}
}

// TestCanceledBootServesNothing forces a cancel: a single short burst
// launches a server whose spin-up outlives the load; the drop back under
// the down threshold must cancel it before it ever serves.
func TestCanceledBootServesNothing(t *testing.T) {
	cfg := fastScaleConfig(1, 3, PolicyQueueDepth)
	cfg.SpinUp = 10 * time.Second // boots far longer than the burst
	cfg.DownCooldown = 50 * time.Millisecond
	var invs []workload.Invocation
	at := time.Duration(0)
	for i := 0; i < 200; i++ { // short overload burst
		invs = append(invs, workload.Invocation{Arrival: at, FibN: 30, Duration: 8 * time.Millisecond, MemMB: 128})
		at += time.Millisecond
	}
	for i := 0; i < 30; i++ { // long sparse tail, still before spin-up ends
		invs = append(invs, workload.Invocation{Arrival: at, FibN: 25, Duration: time.Millisecond, MemMB: 128})
		at += 200 * time.Millisecond
	}
	res, err := Run(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched() <= 1 {
		t.Fatal("burst never launched; test is vacuous")
	}
	canceled := 0
	for i := range res.Servers {
		sv := &res.Servers[i]
		if sv.Canceled {
			canceled++
			if sv.Routed != 0 || sv.RetireAt != sv.DrainAt || sv.RetireAt >= sv.ReadyAt {
				t.Errorf("canceled server %d: routed=%d drain=%v retire=%v ready=%v",
					sv.Index, sv.Routed, sv.DrainAt, sv.RetireAt, sv.ReadyAt)
			}
		}
	}
	if canceled == 0 {
		t.Error("no booting server was canceled")
	}
	if res.Completed != len(invs) {
		t.Errorf("completed %d of %d", res.Completed, len(invs))
	}
}

// TestPinnedFleetColdStartMatchesCluster extends the min=max equivalence
// claim to the warm-instance model: with identical ColdStartConfig, a
// pinned autoscaler and the fixed fleet must make the same
// cold/warm calls and produce identical records.
func TestPinnedFleetColdStartMatchesCluster(t *testing.T) {
	cs := cluster.ColdStartConfig{
		Latency:   20 * time.Millisecond,
		KeepAlive: 5 * time.Second,
		WarmFirst: true,
	}
	invs := steady(300, 2*time.Millisecond, 4*time.Millisecond)
	want, err := cluster.Simulate(cluster.Config{
		Servers:   2,
		Dispatch:  cluster.DispatchLeastLoaded,
		Seed:      7,
		Kernel:    simkern.DefaultConfig(2),
		Policy:    cfsFactory,
		ColdStart: cs,
	}, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{
		Min: 2, Max: 2,
		Dispatch:        cluster.DispatchLeastLoaded,
		Seed:            7,
		Kernel:          simkern.DefaultConfig(2),
		Sched:           cfsFactory,
		ColdStart:       cs,
		TrackAssignment: true,
	}, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if got.ColdStarts != want.Set.ColdStarts() {
		t.Errorf("cold starts %d, want %d", got.ColdStarts, want.Set.ColdStarts())
	}
	if got.ColdStarts == 0 {
		t.Error("cold-start model enabled but no cold starts; test is vacuous")
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("assignment[%d] = %d, want %d", i, got.Assignment[i], want.Assignment[i])
		}
	}
	for s := range want.PerServer {
		ws, gs := want.PerServer[s], got.Servers[s]
		if len(gs.Set.Records) != len(ws.Set.Records) {
			t.Fatalf("server %d: %d records, want %d", s, len(gs.Set.Records), len(ws.Set.Records))
		}
		for i := range ws.Set.Records {
			if gs.Set.Records[i] != ws.Set.Records[i] {
				t.Fatalf("server %d record %d: %+v != %+v", s, i, gs.Set.Records[i], ws.Set.Records[i])
			}
		}
	}
}

// TestAutoscaleColdStartScalingRun exercises the warm pools through full
// scale-up/drain/relaunch cycles: nothing is dropped, the routing-time
// cold-start count agrees with the completion records, per-server counts
// sum to the fleet total, and the whole run is deterministic.
func TestAutoscaleColdStartScalingRun(t *testing.T) {
	run := func() *Result {
		cfg := fastScaleConfig(1, 3, PolicyTargetUtilization)
		cfg.ColdStart = cluster.ColdStartConfig{
			Latency:   2 * time.Millisecond,
			KeepAlive: time.Second,
			WarmFirst: true,
		}
		res, err := Run(cfg, workload.SliceSource(burstyWorkload(0, 2)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Drained() == 0 || res.Launched() <= 1 {
		t.Fatalf("launched=%d drained=%d: fleet never cycled; test is vacuous",
			res.Launched(), res.Drained())
	}
	if res.Routed != res.Completed {
		t.Errorf("routed %d != completed %d", res.Routed, res.Completed)
	}
	if res.ColdStarts == 0 {
		t.Fatal("no cold starts in a scaling run with the model enabled")
	}
	perServer, recorded := 0, 0
	for i := range res.Servers {
		sv := &res.Servers[i]
		perServer += sv.ColdStarts
		if sv.Set != nil {
			recorded += sv.Set.ColdStarts()
		}
		// A server that served anything paid at least one cold start: it
		// launches with an empty pool, and drain destroys it for good.
		if sv.Routed > 0 && sv.ColdStarts == 0 {
			t.Errorf("server %d routed %d invocations with no cold start on a fresh pool",
				sv.Index, sv.Routed)
		}
	}
	if perServer != res.ColdStarts {
		t.Errorf("per-server cold starts sum %d != fleet total %d", perServer, res.ColdStarts)
	}
	if recorded != res.ColdStarts {
		t.Errorf("recorded cold starts %d != routed cold starts %d", recorded, res.ColdStarts)
	}
	again := run()
	if again.ColdStarts != res.ColdStarts || again.Makespan != res.Makespan ||
		again.Launched() != res.Launched() || again.Drained() != res.Drained() {
		t.Errorf("nondeterministic: cold %d/%d makespan %v/%v launched %d/%d drained %d/%d",
			res.ColdStarts, again.ColdStarts, res.Makespan, again.Makespan,
			res.Launched(), again.Launched(), res.Drained(), again.Drained())
	}
}
