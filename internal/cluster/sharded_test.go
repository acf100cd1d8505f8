package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
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
	if _, err := shardPlan(4, -1); err == nil {
		t.Error("negative shards accepted")
	}
	ranges, err := shardPlan(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 { // capped at servers
		t.Errorf("shardPlan(3,16) = %d ranges", len(ranges))
	}
	ranges, err = shardPlan(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * runtime.GOMAXPROCS(0); len(ranges) != want {
		t.Errorf("shardPlan(1000,0) = %d ranges, want 4×GOMAXPROCS = %d", len(ranges), want)
	}
}

// requirePreSeeded is the fleet engine's test oracle. It takes the
// engine's routing — got.Assignment and each record's cold-start
// latency — runs every server's share fully pre-seeded through
// simrun.ExecStats, and fails unless the engine reproduced the records,
// aggregates and per-server shape of those runs bit for bit.
func requirePreSeeded(t *testing.T, name string, cfg Config, invs []workload.Invocation, got *Result) {
	t.Helper()
	if len(got.Set.Records) != len(invs) || len(got.Assignment) != len(invs) {
		t.Fatalf("%s: %d records and %d assignments for %d invocations",
			name, len(got.Set.Records), len(got.Assignment), len(invs))
	}
	shares := make([][]*simkern.Task, cfg.Servers)
	for i, inv := range invs {
		s := got.Assignment[i]
		r := Routed{ColdStart: got.Set.Records[i].ColdStart}
		shares[s] = append(shares[s], r.applyColdStart(workload.Task(inv, simkern.TaskID(i+1))))
	}
	var want metrics.Set
	var makespan time.Duration
	for s, tasks := range shares {
		sr := got.PerServer[s]
		if sr.Invocations != len(tasks) {
			t.Errorf("%s: server %d reports %d invocations, was routed %d", name, s, sr.Invocations, len(tasks))
		}
		if len(tasks) == 0 {
			continue
		}
		k, err := simrun.ExecStats(cfg.Kernel, cfg.Policy(), cfg.Ghost, simrun.AddTasks(tasks), nil)
		if err != nil {
			t.Fatalf("%s: pre-seeded server %d: %v", name, s, err)
		}
		set := metrics.Collect(k)
		if sr.Makespan != k.Makespan() || sr.Preemptions != set.TotalPreemptions() {
			t.Errorf("%s: server %d makespan %v preemptions %d, pre-seeded %v and %d",
				name, s, sr.Makespan, sr.Preemptions, k.Makespan(), set.TotalPreemptions())
		}
		makespan = max(makespan, k.Makespan())
		want.Records = append(want.Records, set.Records...)
	}
	sort.Slice(want.Records, func(i, j int) bool { return want.Records[i].ID < want.Records[j].ID })
	for i := range want.Records {
		if got.Set.Records[i] != want.Records[i] {
			t.Fatalf("%s: record %d differs:\n  engine     %+v\n  pre-seeded %+v",
				name, i, got.Set.Records[i], want.Records[i])
		}
	}
	if got.Makespan != makespan || got.Preemptions != want.TotalPreemptions() {
		t.Errorf("%s: aggregates differ (makespan %v/%v, preempt %d/%d)",
			name, got.Makespan, makespan, got.Preemptions, want.TotalPreemptions())
	}
}

// TestShardedMatchesPreSeeded is the engine's determinism bar: for
// every dispatch policy and shard count, the lockstep run must equal
// the pre-seeded runs of its servers' shares, and so be the same run
// at every shard count.
func TestShardedMatchesPreSeeded(t *testing.T) {
	invs := synthWorkload(300, time.Millisecond, 20*time.Millisecond)
	cfsFactory := func() ghost.Policy { return cfs.New(cfs.Params{}) }
	for _, d := range Dispatches() {
		for _, mk := range []struct {
			name    string
			factory func() ghost.Policy
		}{{"fifo", fifoFactory}, {"cfs", cfsFactory}} {
			cfg := testConfig(5, d)
			cfg.Policy = mk.factory
			cfg.Seed = 1
			var assignment []int
			for _, shards := range []int{1, 3, 7} {
				name := fmt.Sprintf("%s/%s/shards=%d", d, mk.name, shards)
				cfg.Shards = shards
				got, err := Simulate(cfg, workload.SliceSource(invs))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requirePreSeeded(t, name, cfg, invs, got)
				if assignment == nil {
					assignment = got.Assignment
				} else if !slices.Equal(got.Assignment, assignment) {
					t.Errorf("%s: routing depends on the shard count", name)
				}
			}
		}
	}
}

// TestShardedBatchBoundaries: between consecutive watermarks the busy
// shard receives 0, 1, B−1, B, B+1 and 3B arrivals (B = shardBatch), so
// a watermark lands on an empty batch, a partial one, a full one, one
// past full, and after several full batches; the final partial batch is
// handed over at close. Every other shard receives nothing. The run must
// equal the pre-seeded oracle at every shard count.
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
	for _, shards := range []int{1, 3, 7} {
		cfg.Shards = shards
		got, err := Simulate(cfg, workload.SliceSource(invs))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// Each arrival finds server 0 idle, so least-loaded sends all of
		// them to it and the per-window counts above are exactly its
		// shard's.
		if got.PerServer[0].Invocations != len(invs) {
			t.Fatalf("server 0 got %d of %d arrivals; the boundary counts do not hold", got.PerServer[0].Invocations, len(invs))
		}
		requirePreSeeded(t, fmt.Sprintf("shards=%d", shards), cfg, invs, got)
	}
}

// handoffBound is the most messages the router can have handed to shards
// or be filling at once: every batch of the fleet-wide pool, full.
func handoffBound(shards int) int { return (shards + handoffRunAhead) * shardBatch }

// TestShardedFailingShardReportsError: a shard that fails on its first
// arrival keeps consuming its handoff batches, so the router — with many
// times the fleet's handoff bound still to route — finishes instead of
// blocking on the batch pool, and the run returns the shard's error.
func TestShardedFailingShardReportsError(t *testing.T) {
	invs := synthWorkload(8*handoffBound(7), time.Millisecond, time.Millisecond)
	invs[3].Duration = 0 // round-robin sends it to server 3; admission rejects it
	for _, tc := range []struct{ shards, bad int }{{1, 0}, {7, 3}} {
		cfg := testConfig(7, DispatchRoundRobin)
		cfg.Shards = tc.shards
		done := make(chan error, 1)
		go func() {
			_, err := Simulate(cfg, workload.SliceSource(invs))
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

// TestShardedHotShardRunAhead: between two watermarks one hot server
// receives more than twice the in-flight bound of a 16-shard fleet, so
// the router cannot route that chunk without the hot shard handing
// batches back, and waits on the pool whenever it gets ahead, while the
// idle shards hold only mark-only batches. The run must equal the
// pre-seeded oracle at every shard count, and the pool must never make
// more than shards+handoffRunAhead batches.
func TestShardedHotShardRunAhead(t *testing.T) {
	const chunk = 30 * time.Second
	perChunk := []int{5, 2*handoffBound(16) + shardBatch/2, 1, 0, 3*shardBatch + 1}
	var invs []workload.Invocation
	for w, n := range perChunk {
		gap := chunk / time.Duration(n+1)
		for i := 0; i < n; i++ {
			invs = append(invs, workload.Invocation{
				Arrival:  time.Duration(w)*chunk + time.Duration(i+1)*gap,
				FibN:     30,
				Duration: gap / 2,
				MemMB:    128,
			})
		}
	}
	cfg := testConfig(16, DispatchLeastLoaded)
	cfg.Seed = 1
	cfg.Window = chunk
	for _, shards := range []int{1, 3, 7, 16} {
		name := fmt.Sprintf("shards=%d", shards)
		cfg.Shards = shards
		got, err := Simulate(cfg, workload.SliceSource(invs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Each arrival finds server 0 idle, so least-loaded sends all of
		// them to it: one shard is hot and every other shard sees only
		// watermarks.
		if got.PerServer[0].Invocations != len(invs) {
			t.Fatalf("server 0 got %d of %d arrivals; the hot-shard shape does not hold", got.PerServer[0].Invocations, len(invs))
		}
		requirePreSeeded(t, name, cfg, invs, got)
		run, err := runSharded(cfg, workload.SliceSource(invs), true, pricing.Tariff{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if made, bound := run.fleet.pool.made, shards+handoffRunAhead; made > bound {
			t.Errorf("%s: %d handoff batches allocated, bound is %d", name, made, bound)
		}
	}
}

// TestBatchPoolBound: the pool makes batches until it holds
// shards+handoffRunAhead, reuses returned ones before making more, and
// once every batch is out, get waits for a put.
func TestBatchPoolBound(t *testing.T) {
	const shards = 3
	p := newBatchPool(shards)
	out := make([][]shardMsg, 0, shards+handoffRunAhead)
	for len(out) < cap(out) {
		out = append(out, p.get())
	}
	if p.made != cap(out) {
		t.Fatalf("made %d batches for %d gets", p.made, cap(out))
	}
	got := make(chan []shardMsg)
	go func() { got <- p.get() }()
	select {
	case <-got:
		t.Fatal("get returned with every batch out")
	case <-time.After(20 * time.Millisecond):
	}
	p.put(append(out[0], shardMsg{kind: msgMark}))
	if b := <-got; len(b) != 0 || cap(b) != shardBatch {
		t.Errorf("recycled batch has len %d cap %d, want 0 and %d", len(b), cap(b), shardBatch)
	}
	if p.made != cap(out) {
		t.Errorf("made %d batches, want %d", p.made, cap(out))
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
	cfg.Shards = 3
	exact, err := Simulate(cfg, workload.SliceSource(invs))
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
	if _, err := Simulate(cfg, workload.SliceSource(nil)); err == nil {
		t.Error("empty workload accepted")
	}
	bad := cfg
	bad.Shards = -1
	if _, err := Simulate(bad, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond))); err == nil {
		t.Error("negative shards accepted")
	}
	bad = cfg
	bad.Servers = 0
	if _, err := Simulate(bad, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond))); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := SimulateShardedWindowed(cfg, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond)), pricing.Default(), -time.Second); err == nil {
		t.Error("negative window width accepted")
	}
}

// TestShardedColdStartMatchesPreSeeded: the router books the warm pools
// before an arrival reaches its server, so the cold-start model must
// survive sharding unchanged: the run equals the pre-seeded oracle, which
// folds each record's start latency into its demand.
func TestShardedColdStartMatchesPreSeeded(t *testing.T) {
	invs := synthWorkload(200, 2*time.Millisecond, 10*time.Millisecond)
	for i := range invs {
		invs[i].FuncID = 1 + i%7
	}
	cfg := testConfig(3, DispatchLeastLoaded)
	cfg.Seed = 1
	cfg.ColdStart = ColdStartConfig{Latency: 5 * time.Millisecond, KeepAlive: 30 * time.Millisecond, WarmFirst: true}
	cfg.Shards = 3
	got, err := Simulate(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Set.ColdStarts() == 0 {
		t.Fatal("run has no cold starts; test is vacuous")
	}
	requirePreSeeded(t, "cold-start", cfg, invs, got)
}

// abortingPolicy wraps fifo and fails one queued task through
// Env.AbortTask, which retires it without a record: the lost record the
// drain-time conservation check must catch.
type abortingPolicy struct {
	ghost.Policy
	env   *ghost.Env
	abort simkern.TaskID
}

func (p *abortingPolicy) Attach(env *ghost.Env) {
	p.env = env
	p.Policy.Attach(env)
}

func (p *abortingPolicy) OnMessage(msg ghost.Message) {
	if msg.Type == ghost.MsgTaskNew && msg.Task.ID == p.abort {
		if err := p.env.AbortTask(msg.Task); err != nil {
			panic(err)
		}
		return
	}
	p.Policy.OnMessage(msg)
}

// TestLostRecordFailsRun: every routed invocation must end as exactly one
// record. A task aborted without one makes both fixed-fleet entry points
// fail with an error naming its server.
func TestLostRecordFailsRun(t *testing.T) {
	invs := synthWorkload(40, time.Millisecond, 5*time.Millisecond)
	cfg := testConfig(2, DispatchRoundRobin)
	// Round-robin sends invocation 4 (task ID 5) to server 0.
	cfg.Policy = func() ghost.Policy { return &abortingPolicy{Policy: fifoFactory(), abort: 5} }
	const want = "server 0: retired 19 of 20 routed invocations"
	if _, err := Simulate(cfg, workload.SliceSource(invs)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Simulate: err = %v, want one containing %q", err, want)
	}
	if _, err := SimulateShardedWindowed(cfg, workload.SliceSource(invs), pricing.Default(), time.Second); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("SimulateShardedWindowed: err = %v, want one containing %q", err, want)
	}
}

// TestHandoffBatchesStayBounded: joins share the handoff batches with
// arrivals, so a join can fill a batch; the batch must then go out like
// one an arrival filled. Random dispatch over many fresh servers puts
// joins at every batch position. After the run every batch is back in the
// pool, none grown past shardBatch.
func TestHandoffBatchesStayBounded(t *testing.T) {
	invs := synthWorkload(4000, time.Millisecond, time.Millisecond)
	cfg := testConfig(300, DispatchRandom)
	cfg.Shards = 1
	run, err := runSharded(cfg, workload.SliceSource(invs), true, pricing.Tariff{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := run.fleet.pool
	for i := 0; i < p.made; i++ {
		if b := <-p.free; cap(b) != shardBatch {
			t.Fatalf("a handoff batch grew to cap %d, want %d", cap(b), shardBatch)
		}
	}
}
