package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// synthWorkload builds n invocations arriving every gap with work dur.
func synthWorkload(n int, gap, dur time.Duration) []workload.Invocation {
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

func fifoFactory() ghost.Policy { return fifo.New(fifo.Config{}) }

func testConfig(servers int, d Dispatch) Config {
	return Config{
		Servers:  servers,
		Dispatch: d,
		Kernel:   simkern.DefaultConfig(2),
		Policy:   fifoFactory,
	}
}

func TestDispatchesStable(t *testing.T) {
	want := []Dispatch{DispatchRandom, DispatchRoundRobin, DispatchLeastLoaded, DispatchJoinIdleQueue}
	got := Dispatches()
	if len(got) != len(want) {
		t.Fatalf("Dispatches() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Dispatches()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	invs := synthWorkload(4, time.Millisecond, time.Millisecond)
	cases := []struct {
		name string
		cfg  Config
		invs []workload.Invocation
	}{
		{"zero servers", testConfig(0, DispatchRoundRobin), invs},
		{"nil policy", Config{Servers: 2, Kernel: simkern.DefaultConfig(2)}, invs},
		{"empty workload", testConfig(2, DispatchRoundRobin), nil},
		{"zero cores", Config{Servers: 2, Policy: fifoFactory}, invs},
		{"unknown dispatch", testConfig(2, "bogus"), invs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Simulate(tc.cfg, workload.SliceSource(tc.invs)); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}

	unsorted := synthWorkload(3, time.Millisecond, time.Millisecond)
	unsorted[0].Arrival = 5 * time.Millisecond
	if _, err := Simulate(testConfig(2, DispatchRoundRobin), workload.SliceSource(unsorted)); err == nil {
		t.Error("unsorted workload accepted")
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	invs := synthWorkload(12, 10*time.Millisecond, time.Millisecond)
	res, err := Simulate(testConfig(3, DispatchRoundRobin), workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Assignment {
		if s != i%3 {
			t.Fatalf("Assignment[%d] = %d, want %d", i, s, i%3)
		}
	}
	for s, sr := range res.PerServer {
		if sr.Invocations != 4 {
			t.Errorf("server %d got %d invocations, want 4", s, sr.Invocations)
		}
	}
}

func TestAllInvocationsCompleteAndMergeInOrder(t *testing.T) {
	invs := synthWorkload(200, 2*time.Millisecond, 7*time.Millisecond)
	for _, d := range Dispatches() {
		d := d
		t.Run(string(d), func(t *testing.T) {
			t.Parallel()
			res, err := Simulate(testConfig(4, d), workload.SliceSource(invs))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Set.Completed()); got != len(invs) {
				t.Fatalf("completed %d of %d", got, len(invs))
			}
			for i, r := range res.Set.Records {
				if r.ID != uint64(i+1) {
					t.Fatalf("Records[%d].ID = %d, want %d (merge out of order)", i, r.ID, i+1)
				}
			}
			if res.Makespan <= 0 {
				t.Error("zero makespan")
			}
			sum := 0
			for _, sr := range res.PerServer {
				sum += sr.Invocations
			}
			if sum != len(invs) {
				t.Errorf("per-server invocations sum %d != %d", sum, len(invs))
			}
		})
	}
}

// TestLeastLoadedBalances checks that least-loaded keeps the fleet far
// more even than seeded random under uniform work.
func TestLeastLoadedBalances(t *testing.T) {
	invs := synthWorkload(400, time.Millisecond, 10*time.Millisecond)
	ll, err := Simulate(testConfig(8, DispatchLeastLoaded), workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Simulate(testConfig(8, DispatchRandom), workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if lr := ll.ImbalanceRatio(); lr > 1.05 {
		t.Errorf("least-loaded imbalance %.3f, want <= 1.05", lr)
	}
	if ll.ImbalanceRatio() > rnd.ImbalanceRatio() {
		t.Errorf("least-loaded imbalance %.3f worse than random %.3f",
			ll.ImbalanceRatio(), rnd.ImbalanceRatio())
	}
}

// TestJoinIdleQueuePrefersIdle: with arrivals spaced wider than service
// times, every server drains before the next arrival, so JIQ behaves like
// longest-idle-first and never queues behind a busy server.
func TestJoinIdleQueuePrefersIdle(t *testing.T) {
	invs := synthWorkload(50, 20*time.Millisecond, 5*time.Millisecond)
	res, err := Simulate(testConfig(4, DispatchJoinIdleQueue), workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := res.Set.CDF(metrics.Response)
	if err != nil {
		t.Fatal(err)
	}
	// No invocation should wait: arrivals always find an idle server.
	if max := resp.Max(); max > 1.0 { // ms
		t.Errorf("max response %.3fms, want ~0 (idle servers available)", max)
	}
}

func TestFleetModel(t *testing.T) {
	m := NewFleetModel(2, 2)
	if w := m.Outstanding(0, 0); w != 0 {
		t.Errorf("fresh outstanding = %v", w)
	}
	if _, idle := m.IdleSince(0, 0); !idle {
		t.Error("fresh server not idle")
	}
	inv := workload.Invocation{Arrival: 0, Duration: 10 * time.Millisecond}
	m.Assign(0, inv)
	m.Assign(0, inv)
	if fin := m.Assign(0, inv); fin != 20*time.Millisecond {
		t.Errorf("third booking finishes at %v, want 20ms (queued behind lane 0)", fin)
	}
	if w := m.Outstanding(0, 0); w != 30*time.Millisecond {
		t.Errorf("outstanding = %v, want 30ms", w)
	}
	if n := m.BusyLanes(0, 5*time.Millisecond); n != 2 {
		t.Errorf("busy lanes = %d, want 2", n)
	}
	if _, idle := m.IdleSince(0, 5*time.Millisecond); idle {
		t.Error("busy server reported idle")
	}
	if since, idle := m.IdleSince(0, 25*time.Millisecond); !idle || since != 20*time.Millisecond {
		t.Errorf("IdleSince = %v, %v; want 20ms, true", since, idle)
	}
	if w := m.Outstanding(1, 0); w != 0 {
		t.Errorf("untouched server outstanding = %v", w)
	}
	if s := m.AddServer(40 * time.Millisecond); s != 2 {
		t.Errorf("AddServer index = %d, want 2", s)
	}
	if since, idle := m.IdleSince(2, 50*time.Millisecond); !idle || since != 40*time.Millisecond {
		t.Errorf("new server IdleSince = %v, %v; want 40ms, true (lanes free at spin-up end)", since, idle)
	}
}

// TestSimulateDeterministic runs a 16-server fleet twice per dispatch
// policy and demands bit-for-bit identical summaries despite the
// concurrently running shard workers.
func TestSimulateDeterministic(t *testing.T) {
	invs := synthWorkload(300, time.Millisecond, 6*time.Millisecond)
	for _, d := range Dispatches() {
		d := d
		t.Run(string(d), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(16, d)
			cfg.Seed = 7
			cfg.Policy = func() ghost.Policy { return cfs.New(cfs.Params{}) }
			digest := func() string {
				res, err := Simulate(cfg, workload.SliceSource(invs))
				if err != nil {
					t.Fatal(err)
				}
				out := res.Set.Summary() + fmt.Sprintf("|makespan=%s preempt=%d", res.Makespan, res.Preemptions)
				for _, sr := range res.PerServer {
					out += fmt.Sprintf("|s%d:n=%d mk=%s", sr.Server, sr.Invocations, sr.Makespan)
				}
				for _, s := range res.Assignment {
					out += fmt.Sprintf(",%d", s)
				}
				return out
			}
			if a, b := digest(), digest(); a != b {
				t.Errorf("nondeterministic fleet result:\n%s\n%s", a, b)
			}
		})
	}
}

// TestEmptyServerTolerated: with more servers than invocations some
// servers stay idle; the merge must cope.
func TestEmptyServerTolerated(t *testing.T) {
	invs := synthWorkload(3, time.Millisecond, time.Millisecond)
	res, err := Simulate(testConfig(8, DispatchRoundRobin), workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Set.Completed()); got != 3 {
		t.Fatalf("completed %d of 3", got)
	}
	for s := 3; s < 8; s++ {
		if res.PerServer[s].Invocations != 0 {
			t.Errorf("server %d should be empty", s)
		}
	}
}
