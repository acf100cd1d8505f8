package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/workload"
)

func TestShardRanges(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		want      [][2]int
	}{
		{5, 2, [][2]int{{0, 2}, {2, 5}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{3, 7, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // shards capped at n
		{4, 1, [][2]int{{0, 4}}},
		{4, 0, [][2]int{{0, 4}}}, // clamped up to 1
	} {
		got := shardRanges(tc.n, tc.shards)
		if len(got) != len(tc.want) {
			t.Errorf("shardRanges(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("shardRanges(%d,%d)[%d] = %v, want %v", tc.n, tc.shards, i, got[i], tc.want[i])
			}
		}
	}
	// Ranges must always tile [0, n) contiguously.
	for n := 1; n <= 17; n++ {
		for s := 1; s <= 2*n; s++ {
			lo := 0
			for _, r := range shardRanges(n, s) {
				if r[0] != lo || r[1] <= r[0] {
					t.Fatalf("shardRanges(%d,%d) not contiguous: %v", n, s, shardRanges(n, s))
				}
				lo = r[1]
			}
			if lo != n {
				t.Fatalf("shardRanges(%d,%d) does not cover [0,%d)", n, s, n)
			}
		}
	}
}

func TestShardPlanValidation(t *testing.T) {
	if _, _, err := shardPlan(4, -1, 0); err == nil {
		t.Error("negative shards accepted")
	}
	if _, _, err := shardPlan(4, 0, -1); err == nil {
		t.Error("negative workers accepted")
	}
	ranges, workers, err := shardPlan(8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 8 || workers != 2 { // 4×workers, capped at servers
		t.Errorf("shardPlan(8,0,2) = %d ranges, %d workers", len(ranges), workers)
	}
	ranges, workers, err = shardPlan(3, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 || workers != 3 { // both capped at servers
		t.Errorf("shardPlan(3,16,16) = %d ranges, %d workers", len(ranges), workers)
	}
}

// TestShardedExactMatchesFlat is the lockstep engine's determinism bar:
// for every dispatch policy, shard count, and worker bound, the sharded
// streaming run must reproduce the flat fleet's records, routing, and
// per-server shape bit for bit.
func TestShardedExactMatchesFlat(t *testing.T) {
	invs := synthWorkload(300, time.Millisecond, 20*time.Millisecond)
	cfsFactory := func() ghost.Policy { return cfs.New(cfs.Params{}) }
	for _, d := range Dispatches() {
		for _, mk := range []struct {
			name    string
			factory func() ghost.Policy
		}{{"fifo", fifoFactory}, {"cfs", cfsFactory}} {
			flatCfg := testConfig(5, d)
			flatCfg.Policy = mk.factory
			flatCfg.Seed = 1
			flat, err := Simulate(flatCfg, invs)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3, 7} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/shards=%d/workers=%d", d, mk.name, shards, workers)
					cfg := flatCfg
					cfg.Shards, cfg.Workers = shards, workers
					got, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireMatchesFlat(t, name, got, flat)
				}
			}
		}
	}
}

// requireMatchesFlat fails unless a sharded exact run reproduces the
// flat fleet's records, aggregates, routing and per-server shape.
func requireMatchesFlat(t *testing.T, name string, got, flat *Result) {
	t.Helper()
	if len(got.Set.Records) != len(flat.Set.Records) {
		t.Fatalf("%s: %d records, flat has %d", name, len(got.Set.Records), len(flat.Set.Records))
	}
	for i := range flat.Set.Records {
		if got.Set.Records[i] != flat.Set.Records[i] {
			t.Fatalf("%s: record %d differs:\nsharded %+v\nflat    %+v",
				name, i, got.Set.Records[i], flat.Set.Records[i])
		}
	}
	if got.Makespan != flat.Makespan || got.Preemptions != flat.Preemptions {
		t.Errorf("%s: aggregates differ (makespan %v/%v, preempt %d/%d)",
			name, got.Makespan, flat.Makespan, got.Preemptions, flat.Preemptions)
	}
	for i := range flat.Assignment {
		if got.Assignment[i] != flat.Assignment[i] {
			t.Fatalf("%s: invocation %d routed to server %d, flat routed to %d",
				name, i, got.Assignment[i], flat.Assignment[i])
		}
	}
	for s := range flat.PerServer {
		fs, gs := flat.PerServer[s], got.PerServer[s]
		if gs.Invocations != fs.Invocations || gs.Makespan != fs.Makespan || gs.Preemptions != fs.Preemptions {
			t.Errorf("%s: server %d shape differs", name, s)
		}
	}
}

// TestShardedBatchBoundaries: between consecutive watermarks the busy
// shard receives 0, 1, B−1, B, B+1 and 3B arrivals (B = shardBatch), so
// a watermark lands on an empty batch, a partial one, a full one, one
// past full, and after several full batches; the final partial batch is
// handed over at close. Every other shard receives nothing. The run must
// equal the flat fleet at every shard count.
func TestShardedBatchBoundaries(t *testing.T) {
	const chunk = time.Second
	var invs []workload.Invocation
	for w, n := range []int{0, 1, shardBatch - 1, shardBatch, shardBatch + 1, 3 * shardBatch, 0, 2} {
		for i := 0; i < n; i++ {
			invs = append(invs, workload.Invocation{
				Arrival:  time.Duration(w)*chunk + time.Duration(i+1)*2*time.Millisecond,
				FibN:     30,
				Duration: time.Millisecond,
				MemMB:    128,
			})
		}
	}
	cfg := testConfig(7, DispatchLeastLoaded)
	cfg.Policy = func() ghost.Policy { return cfs.New(cfs.Params{}) }
	cfg.Seed = 1
	cfg.Window = chunk
	flat, err := Simulate(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	// Each arrival finds server 0 idle, so least-loaded sends all of them
	// to it and the per-window counts above are exactly its shard's.
	if flat.PerServer[0].Invocations != len(invs) {
		t.Fatalf("server 0 got %d of %d arrivals; the boundary counts do not hold", flat.PerServer[0].Invocations, len(invs))
	}
	for _, shards := range []int{1, 3, 7} {
		cfg.Shards, cfg.Workers = shards, 2
		got, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireMatchesFlat(t, fmt.Sprintf("shards=%d", shards), got, flat)
	}
}

// TestShardedFailingShardReportsError: a shard that fails on its first
// arrival keeps consuming its handoff batches, so the router — with many
// times the shard's channel capacity still to route — finishes instead of
// blocking, and the run returns the shard's error.
func TestShardedFailingShardReportsError(t *testing.T) {
	invs := synthWorkload(20*shardChanBuf*shardBatch, time.Millisecond, time.Millisecond)
	invs[3].Duration = 0 // round-robin sends it to server 3; admission rejects it
	for _, tc := range []struct{ shards, bad int }{{1, 0}, {7, 3}} {
		cfg := testConfig(7, DispatchRoundRobin)
		cfg.Shards, cfg.Workers = tc.shards, 2
		done := make(chan error, 1)
		go func() {
			_, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
			done <- err
		}()
		select {
		case err := <-done:
			want := fmt.Sprintf("shard %d ", tc.bad)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("shards=%d: err = %v, want one naming %q", tc.shards, err, want)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("shards=%d: run with a failed shard did not return", tc.shards)
		}
	}
}

// TestShardedWindowedMatchesExact: the windowed replay's merged
// accumulator must agree with the exact record set bucketed by hand —
// same completions per window, same totals, same cost.
func TestShardedWindowedMatchesExact(t *testing.T) {
	invs := synthWorkload(400, time.Millisecond, 15*time.Millisecond)
	width := 50 * time.Millisecond
	tariff := pricing.Default()
	cfg := testConfig(4, DispatchLeastLoaded)
	cfg.Shards, cfg.Workers = 3, 2
	exact, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateShardedWindowed(cfg, workload.SliceSource(invs), tariff, width)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invocations != len(invs) {
		t.Errorf("routed %d invocations, want %d", rep.Invocations, len(invs))
	}
	if rep.Makespan != exact.Makespan {
		t.Errorf("makespan %v != exact %v", rep.Makespan, exact.Makespan)
	}
	total := rep.Windowed.Total()
	if total.Completed() != len(exact.Set.Records) {
		t.Errorf("windowed total %d completions, exact %d", total.Completed(), len(exact.Set.Records))
	}
	perWindow := map[int]int{}
	for _, r := range exact.Set.Records {
		perWindow[int(r.Finish/width)]++
	}
	for w := 0; w < rep.Windowed.Windows(); w++ {
		if got, want := rep.Windowed.Window(w).Completed(), perWindow[w]; got != want {
			t.Errorf("window %d: %d completions, exact bucketing says %d", w, got, want)
		}
	}
	wantCost := exact.Set.Cost(tariff)
	if got := total.Cost(); got < wantCost*0.999999 || got > wantCost*1.000001 {
		t.Errorf("windowed cost %v, exact %v", got, wantCost)
	}
}

// TestShardedValidation covers the sharded engine's error paths.
func TestShardedValidation(t *testing.T) {
	cfg := testConfig(3, DispatchRoundRobin)
	if _, err := SimulateShardedExact(cfg, workload.SliceSource(nil)); err == nil {
		t.Error("empty workload accepted")
	}
	bad := cfg
	bad.Shards = -1
	if _, err := SimulateShardedExact(bad, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond))); err == nil {
		t.Error("negative shards accepted")
	}
	bad = cfg
	bad.Servers = 0
	if _, err := SimulateShardedExact(bad, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond))); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := SimulateShardedWindowed(cfg, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond)), pricing.Default(), -time.Second); err == nil {
		t.Error("negative window width accepted")
	}
}

// TestShardedColdStartMatchesFlat: the router replicates the flat path's
// warm-pool bookkeeping, so the cold-start model must survive sharding
// unchanged (same cold-start flags on every record).
func TestShardedColdStartMatchesFlat(t *testing.T) {
	invs := synthWorkload(200, 2*time.Millisecond, 10*time.Millisecond)
	for i := range invs {
		invs[i].FuncID = 1 + i%7
	}
	cfg := testConfig(3, DispatchLeastLoaded)
	cfg.Seed = 1
	cfg.ColdStart = ColdStartConfig{Latency: 5 * time.Millisecond, KeepAlive: 30 * time.Millisecond, WarmFirst: true}
	flat, err := Simulate(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards, cfg.Workers = 3, 2
	got, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Set.ColdStarts() == 0 {
		t.Fatal("flat run has no cold starts; test is vacuous")
	}
	if got.Set.ColdStarts() != flat.Set.ColdStarts() {
		t.Fatalf("sharded cold starts %d, flat %d", got.Set.ColdStarts(), flat.Set.ColdStarts())
	}
	for i := range flat.Set.Records {
		if got.Set.Records[i] != flat.Set.Records[i] {
			t.Fatalf("record %d differs under the cold-start model", i)
		}
	}
}
