package cluster

import (
	"bytes"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// lazyWindows are the watermark steps FuzzLazyAdmission picks from; zero
// is simrun.DefaultWindow.
var lazyWindows = []time.Duration{time.Millisecond, 3 * time.Millisecond, 50 * time.Millisecond, time.Second, 0}

// lazyPolicies are the schedulers FuzzLazyAdmission picks from: one with
// no ticks, one with CFS's tick grid and the hybrid with its monitor.
var lazyPolicies = []func() ghost.Policy{
	fifoFactory,
	func() ghost.Policy { return cfs.New(cfs.Params{}) },
	func() ghost.Policy { return core.New(core.Config{FIFOCores: 1}) },
}

// lazyArrivals decodes script into a sorted arrival sequence, two bytes
// an invocation: the first picks the gap to the previous arrival (the
// first arrival's gap counts from zero), the second the work, a multiple
// of 250 µs. Gaps are a same-instant tie, 1 ns, a landing exactly on the
// next watermark or 1 ns past it, a jump over more than a whole window,
// a short irregular gap, or the span from an arrival to the completion
// of work dispatched on it (the 5 µs switch cost plus whole work units,
// and 2 µs more when messages take the default latency), so arrivals tie
// with completions. A script that opens with a tie or a 1 ns gap starts
// at 0 ns or 1 ns.
func lazyArrivals(window time.Duration, script []byte) []workload.Invocation {
	if window == 0 {
		window = simrun.DefaultWindow
	}
	var invs []workload.Invocation
	var at time.Duration
	for i := 0; i+1 < len(script) && len(invs) < 64; i += 2 {
		op, arg := script[i]%8, time.Duration(script[i]>>3)
		switch op {
		case 0: // same instant
		case 1:
			at++
		case 2:
			at = (at/window + 1) * window
		case 3:
			at = (at/window+1)*window + 1
		case 4:
			at += (1+arg%3)*window + arg*time.Microsecond + 1
		case 5:
			at += 5*time.Microsecond + arg%8*250*time.Microsecond
		case 6:
			at += 7*time.Microsecond + arg%8*250*time.Microsecond
		default:
			at += arg*37*time.Microsecond + 1
		}
		invs = append(invs, workload.Invocation{
			Arrival:  at,
			FibN:     30,
			Duration: time.Duration(script[i+1]%40+1) * 250 * time.Microsecond,
			MemMB:    128,
		})
	}
	return invs
}

// simulateRetiring routes invs round-robin straight onto the fleet
// engine, as the elastic fleet does, and retires each server right after
// its last arrival: its shard drains it at once, arrivals still pending,
// while the watermarks go on for the others. It returns what Simulate
// would, for requirePreSeeded.
func simulateRetiring(cfg Config, invs []workload.Invocation) (*Result, error) {
	n := cfg.Servers
	shards := min(n, 2)
	slots := metrics.NewSlots(len(invs))
	f := NewFleet(cfg.Kernel, cfg.Ghost, nil, cfg.Window, shards, func(s int) int { return s % shards }, slots)
	res := &Result{Servers: n, PerServer: make([]ServerResult, n), Assignment: make([]int32, len(invs))}
	members := make([]*Member, n)
	for i, inv := range invs {
		s := i % n
		f.Advance(inv.Arrival)
		if members[s] == nil {
			members[s] = &Member{Index: s, Policy: cfg.Policy()}
			f.Join(members[s])
		}
		f.Admit(members[s], Routed{Inv: inv, Idx: i})
		res.Assignment[i] = int32(s)
		if i+n >= len(invs) {
			f.Retire(members[s])
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var err error
	if res.Set.Records, err = slots.Close(res.Assignment); err != nil {
		return nil, err
	}
	for s, m := range members {
		res.PerServer[s].Server = s
		if m != nil {
			res.PerServer[s] = m.Result
		}
		res.Totals.Add(&res.PerServer[s])
	}
	return res, nil
}

// FuzzLazyAdmission runs random arrival sequences through the fleet
// engine on one to three servers, whose shards admit each arrival only
// when the server's clock reaches it, and requires every record, field
// for field, and every server's makespan and preemptions to match the
// pre-seeded simrun.ExecStats run of its server's share
// (requirePreSeeded). Bit 7 of policy picks synchronous message
// delivery, under which an arrival's policy message lands at its own
// instant, ahead of that instant's ticks and completions. Bit 6 drives
// the engine through simulateRetiring instead of Simulate, so each
// server is retired, and drained, with its last arrivals still pending.
func FuzzLazyAdmission(f *testing.F) {
	// chunkTie is pendLen+1 arrivals at 185,001 ns, and tie1ns as many at
	// 1 ns: the tie fills a pending chunk and spills into the next.
	chunkTie := append([]byte{5<<3 | 7, 3}, bytes.Repeat([]byte{0, 5}, pendLen)...)
	tie1ns := append([]byte{1, 3}, bytes.Repeat([]byte{0, 5}, pendLen)...)
	// lastSlotTie puts pendLen-1 arrivals 1 ns apart, then a tie whose
	// first arrival takes a chunk's last slot, on the first 1 ms
	// watermark; the next arrival lands 1 ns past the second one.
	lastSlotTie := append(bytes.Repeat([]byte{1, 2}, pendLen-1), 2, 9, 0, 9, 0, 9, 0, 9, 3, 4, 1, 4)
	// partChunk is 45 arrivals within 80 µs, so a lone server retired
	// after its last one still holds a full chunk and a part-filled one.
	partChunk := bytes.Repeat([]byte{1, 6, 0, 6, 5, 1}, 15)
	for _, seed := range []struct {
		servers, window, policy, dispatch uint8
		script                            []byte
	}{
		// Three ties at 0 ns, then 1 ns, then onto and past watermarks.
		{1, 0, 0, 0, []byte{0, 7, 0, 3, 0, 9, 1, 2, 2, 5, 0, 5, 3, 1, 1, 8}},
		// A 1 ns start, ties on a 1 ms watermark, gaps over windows.
		{2, 0, 1, 1, []byte{1, 4, 2, 9, 0, 9, 0, 2, 4, 6, 12, 3, 0, 3, 20, 11, 2, 1}},
		// The hybrid on three servers, one of them hot.
		{3, 2, 2, 2, []byte{0, 30, 0, 30, 0, 30, 0, 30, 5, 1, 13, 2, 2, 3, 0, 4, 4, 5, 1, 6, 7, 7}},
		// The default 30 s window with a gap longer than it.
		{2, 4, 2, 3, []byte{0, 10, 5, 39, 4, 2, 0, 2, 1, 2, 3, 9, 2, 9}},
		// One-second watermarks, exactly on them and one past.
		{1, 3, 1, 0, []byte{2, 3, 0, 3, 3, 3, 2, 3, 1, 3, 4, 3, 3, 3}},
		// Synchronous delivery: CFS on 1 ms watermarks, arrivals on them.
		{1, 0, 0x81, 0, []byte{2, 3, 0, 3, 2, 1, 2, 3, 0, 7, 2, 3, 2, 3, 2, 3}},
		// CFS on 1 ms watermarks with arrivals tied to completions: the
		// input that catches admitting an arrival after its instant's
		// events have fired instead of before.
		{75, 0, 1, 1, []byte("0+00000020.0")},
		// A tie of pendLen+1 arrivals on one server: the machine runs to
		// the instant before once, not once per chunk (at 1 ns, a second
		// run would be RunTo(0), "no limit").
		{0, 0, 0, 0, chunkTie},
		{0, 3, 2, 0, tie1ns},
		// A tie that starts in a chunk's last slot, on a watermark.
		{0, 0, 1, 0, lastSlotTie},
		{0, 0, 0x82, 0, lastSlotTie},
		// Retired servers: a lone one with all 45 arrivals pending at its
		// retire (a full chunk and a part-filled one), three retiring in
		// turn, and two retiring after a tie on a watermark under
		// synchronous delivery.
		{0, 4, 0x40, 0, partChunk},
		{2, 1, 0x41, 0, partChunk},
		{1, 0, 0xc2, 1, lastSlotTie},
	} {
		f.Add(seed.servers, seed.window, seed.policy, seed.dispatch, seed.script)
	}
	f.Fuzz(func(t *testing.T, servers, window, policy, dispatch uint8, script []byte) {
		w := lazyWindows[int(window)%len(lazyWindows)]
		invs := lazyArrivals(w, script)
		if len(invs) == 0 {
			return
		}
		cfg := Config{
			Servers:  int(servers)%3 + 1,
			Dispatch: Dispatches()[int(dispatch)%len(Dispatches())],
			Seed:     int64(dispatch) + 1,
			Kernel:   simkern.DefaultConfig(2),
			Policy:   lazyPolicies[int(policy&0x3f)%len(lazyPolicies)],
			Ghost:    ghost.Config{NoLatency: policy&0x80 != 0},
			Window:   w,
		}
		run := Simulate
		if policy&0x40 != 0 {
			run = simulateRetiring
		}
		got, err := run(cfg, invs)
		if err != nil {
			t.Fatal(err)
		}
		requirePreSeeded(t, "lazy admission", cfg, invs, got)
	})
}

// footprintPolicy is a FIFO policy that also counts the tasks it hears
// of: the distinct task structs, and the peak number of tasks that have
// arrived and not yet been retired.
type footprintPolicy struct {
	*fifo.Policy
	structs    map[*simkern.Task]bool
	live, peak int
}

// OnMessage implements ghost.Policy.
func (p *footprintPolicy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.structs[m.Task] = true
		p.live++
		p.peak = max(p.peak, p.live)
	case ghost.MsgTaskDead:
		p.live--
	}
	p.Policy.OnMessage(m)
}

// TestShardHoldsOnlyDueTasks pins lazy admission's footprint: a server
// turns a routed invocation into a task only when its clock reaches the
// arrival. On a one-server fleet with a 30 s watermark step, each step
// routes ~1,000 short invocations while only a few run at once, so a
// shard that built every task on receipt would draw about a step's worth
// of structs from the task pool. The pool reuses retired structs, so the
// distinct structs the policy sees are what the pool allocated; they
// must not exceed the peak number of arrived-but-unretired tasks plus
// the most arrivals that share one instant (admitted together, just
// before that instant's events fire).
func TestShardHoldsOnlyDueTasks(t *testing.T) {
	// An arrival every 30 ms, three at every fourth instant.
	const maxTies = 3
	var invs []workload.Invocation
	for k := 0; k < 2400; k++ {
		at := time.Duration(k) * 30 * time.Millisecond
		n := 1
		if k%4 == 0 {
			n = maxTies
		}
		for range n {
			invs = append(invs, workload.Invocation{Arrival: at, FibN: 30, Duration: 10 * time.Millisecond, MemMB: 128})
		}
	}
	var pol *footprintPolicy
	cfg := Config{
		Servers:  1,
		Dispatch: DispatchRoundRobin,
		Kernel:   simkern.DefaultConfig(2),
		Ghost:    ghost.Config{NoLatency: true},
		Window:   30 * time.Second,
		Policy: func() ghost.Policy {
			pol = &footprintPolicy{Policy: fifo.New(fifo.Config{}), structs: map[*simkern.Task]bool{}}
			return pol
		},
	}
	res, err := Simulate(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Set.Records); n != len(invs) {
		t.Fatalf("%d records for %d invocations", n, len(invs))
	}
	if pol.peak < 2 {
		t.Fatalf("vacuous workload: peak %d live tasks", pol.peak)
	}
	if bound := pol.peak + maxTies; len(pol.structs) > bound {
		t.Errorf("the task pool allocated %d structs; the run peaked at %d arrived-but-unretired tasks with at most %d arrivals at one instant (bound %d)",
			len(pol.structs), pol.peak, maxTies, bound)
	}
	t.Logf("%d task structs, peak %d live tasks, %d-way ties", len(pol.structs), pol.peak, maxTies)
}

// TestShardRecyclesPendingChunks pins the pending queues' footprint: a
// shard hands each chunk back as soon as its arrivals are admitted, and
// each watermark admits everything pending, so over a run of many
// watermark steps a shard allocates no more chunks than its busiest step
// fills, plus one part-filled chunk per server. A shard that kept each
// server's chunks, or allocated afresh each step, would need far more.
func TestShardRecyclesPendingChunks(t *testing.T) {
	const window = 100 * time.Millisecond
	// 200 watermark steps; step k+1 carries 5 + 37·(k mod 7) arrivals,
	// spread evenly over (k·window, (k+1)·window).
	var invs []workload.Invocation
	for k := range 200 {
		n := 5 + 37*(k%7)
		for j := range n {
			at := time.Duration(k)*window + time.Duration(j+1)*window/time.Duration(n+1)
			invs = append(invs, workload.Invocation{Arrival: at, FibN: 30, Duration: time.Millisecond, MemMB: 128})
		}
	}
	cfg := testConfig(6, DispatchRoundRobin)
	cfg.Shards = 2
	cfg.Window = window
	run, err := runSharded(cfg, workload.SliceSource(invs), len(invs), pricing.Tariff{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// perStep[shard][step][server] counts the arrivals each server had
	// pending when the shard applied the step's watermark.
	perStep := make([]map[time.Duration]map[int]int, len(run.ranges))
	for i := range perStep {
		perStep[i] = map[time.Duration]map[int]int{}
	}
	for i, inv := range invs {
		s := int(run.assign[i])
		sh := run.fleet.shardOf(s)
		step := max(1, (inv.Arrival+window-1)/window)
		if perStep[sh][step] == nil {
			perStep[sh][step] = map[int]int{}
		}
		perStep[sh][step][s]++
	}
	for i, w := range run.fleet.workers {
		peak, unrecycled := 0, 0
		for _, servers := range perStep[i] {
			total := 0
			for _, n := range servers {
				total += n
				unrecycled += (n + pendLen - 1) / pendLen
			}
			peak = max(peak, total)
		}
		bound := (peak+pendLen-1)/pendLen + len(w.members)
		if unrecycled <= 2*bound {
			t.Fatalf("shard %d: vacuous workload: %d chunks without recycling, bound %d", i, unrecycled, bound)
		}
		if w.made == 0 || w.made > bound {
			t.Errorf("shard %d allocated %d pending chunks; its busiest step held %d arrivals over %d servers (bound %d, %d without recycling)",
				i, w.made, peak, len(w.members), bound, unrecycled)
		}
		t.Logf("shard %d: %d chunks, bound %d, %d without recycling", i, w.made, bound, unrecycled)
	}
}

// ownerPolicy records which servers each task struct ran on.
type ownerPolicy struct {
	*fifo.Policy
	server int
	owners map[*simkern.Task]map[int]bool
}

// OnMessage implements ghost.Policy.
func (p *ownerPolicy) OnMessage(m ghost.Message) {
	if m.Type == ghost.MsgTaskNew {
		if p.owners[m.Task] == nil {
			p.owners[m.Task] = map[int]bool{}
		}
		p.owners[m.Task][p.server] = true
	}
	p.Policy.OnMessage(m)
}

// TestShardSharesTaskPool pins the task pool's scope: a shard's servers
// draw their tasks from one pool, so a task retired on one server carries
// a later arrival of another, and the shard holds tasks for its own peak
// concurrency, not each server's. Four servers in one shard each run one
// short task at a time, and no task is live at a watermark; per-server
// pools would need a struct per server, the shard's pool fewer, and after
// the drain every struct is back in it.
func TestShardSharesTaskPool(t *testing.T) {
	const servers = 4
	var invs []workload.Invocation
	for k := range 400 {
		at := time.Duration(k)*10*time.Millisecond + time.Millisecond
		invs = append(invs, workload.Invocation{Arrival: at, FibN: 30, Duration: time.Millisecond, MemMB: 128})
	}
	owners := map[*simkern.Task]map[int]bool{}
	built := 0
	cfg := testConfig(servers, DispatchRoundRobin)
	cfg.Shards = 1
	cfg.Window = time.Second
	cfg.Policy = func() ghost.Policy {
		built++
		return &ownerPolicy{Policy: fifo.New(fifo.Config{}), server: built, owners: owners}
	}
	run, err := runSharded(cfg, workload.SliceSource(invs), len(invs), pricing.Tariff{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if built != servers {
		t.Fatalf("vacuous run: %d of %d servers built", built, servers)
	}
	shared := 0
	for _, on := range owners {
		if len(on) > 1 {
			shared++
		}
	}
	if shared == 0 || len(owners) >= servers {
		t.Errorf("%d task structs over %d servers, %d of them used on more than one server; want fewer structs than servers, shared across them",
			len(owners), servers, shared)
	}
	if free := run.fleet.workers[0].tasks.FreeLen(); free != len(owners) {
		t.Errorf("the drained shard's pool holds %d tasks, want all %d structs its servers used", free, len(owners))
	}
}
