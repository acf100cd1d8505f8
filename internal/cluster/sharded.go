// The lockstep fleet engine. A single router goroutine owns the arrival
// order (dispatch is causally deterministic), hands each Routed
// invocation to the shard owning its server, and broadcasts a watermark T
// once every arrival ≤ T has been handed over. Each shard worker owns its
// servers' machines outright: on an arrival it admits the task
// (simrun.Incremental, whose open admission makes it equal to a fully
// pre-seeded run of the server's share, DESIGN.md §7), on a watermark it
// advances its servers to T in server-index order, folding completions
// into a shard-local sink. When the source drains, shards drain their
// machines and the shard results merge in shard-index order (a pairwise
// metrics.MergeTree for the windowed replay; an id-sorted record merge
// for Simulate), so the result is bit-for-bit independent of how the
// shard goroutines were scheduled. Nothing is materialized up front, so
// the windowed replay of a 1,000-server ×10 24 h window (~90M
// invocations) runs in memory bounded by active tasks and windows. See
// DESIGN.md §11.
//
// Watermarks order each shard's work but do not make the router wait: the
// router keeps routing past a watermark while shards are still simulating
// up to it, bounded only by a fleet-wide pool of handoff batches. On a
// fleet whose load sits in one shard, that lets the router route the next
// chunk while the hot shard simulates the last (DESIGN.md §16).

package cluster

import (
	"fmt"
	"sort"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// shardMsg is one entry of a router→shard handoff batch: either a routed
// arrival for one of the shard's servers, or a watermark releasing the
// shard to advance every server's clock to mark.
type shardMsg struct {
	r      Routed
	server int
	mark   time.Duration
	isMark bool
}

// The router hands each shard its messages in batches rather than one
// channel send per arrival (DESIGN.md §16). A batch is sent when it holds
// shardBatch messages, when a watermark has just been appended to it, and
// at close; the shard applies it in order, so per-shard admission order
// and watermark placement are those of the unbatched stream.
//
// Batches come from one fleet-wide pool, not one per shard (batchPool).
// The pool is the only place the router blocks, so a hot shard may hold
// almost every batch while idle shards, which receive little but
// watermarks, hold only the mark-only batches they have yet to apply.
const (
	// shardBatch is the handoff batch capacity, in messages: enough to
	// amortize a channel send and its wake-up over many arrivals, small
	// enough that a shard starts on a chunk's arrivals long before the
	// router has routed the whole chunk.
	shardBatch = 64
	// handoffRunAhead is how many batches beyond one per shard the fleet
	// keeps in flight. handoffRunAhead·shardBatch = 4,096 messages covers
	// one default 30 s watermark chunk on the hot shard of the 10k-server
	// idle fleet (~3.2k arrivals), so the router routes the next chunk
	// while that shard simulates the last instead of taking turns with
	// it. Fewer batches bring the turns back, more buy little and cost
	// memory (DESIGN.md §16 has the sweep). At 96 B a message these
	// batches take ≈390 KB, plus 6 KB for each shard's own.
	handoffRunAhead = 64
)

// batchPool is the fleet-wide pool of handoff batches. The router takes a
// batch whenever it starts filling one for a shard; a shard puts each
// batch back once applied. At most cap(free) = shards+handoffRunAhead
// batches exist, made on demand, and every shard channel is that deep, so
// a channel send never blocks: the router waits only in get, when every
// batch is in flight.
type batchPool struct {
	free chan []shardMsg
	made int // batches allocated so far; touched by the router only
}

func newBatchPool(shards int) *batchPool {
	return &batchPool{free: make(chan []shardMsg, shards+handoffRunAhead)}
}

// get returns an empty batch, reusing an applied one when there is one,
// allocating while under the bound, and otherwise waiting for a shard to
// put one back.
func (p *batchPool) get() []shardMsg {
	select {
	case b := <-p.free:
		return b
	default:
	}
	if p.made < cap(p.free) {
		p.made++
		return make([]shardMsg, 0, shardBatch)
	}
	return <-p.free
}

// put returns an applied batch. It never blocks: free holds every batch.
func (p *batchPool) put(b []shardMsg) { p.free <- b[:0] }

// shardedServer is one live machine inside a shard worker. Servers are
// created on first arrival, so fleet slots that never receive traffic
// cost nothing.
type shardedServer struct {
	inc         *simrun.Incremental
	set         *metrics.Set // exact mode only
	fm          *faults.Machine
	invocations int
}

// shardWorker owns servers [lo, hi) of the fleet.
type shardWorker struct {
	cfg      *Config
	shard    int
	lo, hi   int
	policies []ghost.Policy
	exact    bool                         // Simulate's per-server record Sets, not a windowed sink
	acc      *metrics.WindowedAccumulator // windowed mode's shard-local sink
	servers  []*shardedServer
	ch       chan []shardMsg // handoff batches, in routing order
	pool     *batchPool      // where applied batches go back
	err      error
	makespan time.Duration
	stats    ghost.Stats
	events   uint64
	invs     int
	faults   faults.Stats
	// reg is the shard-local counter registry (nil when counters are
	// off); shard registries merge in shard-index order after the run,
	// MergeTree-style, so totals are bit-stable at any shard count.
	reg *obs.Registry
}

// run consumes the shard's handoff batches until the router closes the
// channel, then drains every machine. After a failure it keeps consuming
// (and discarding) batches so the router never blocks on a dead shard.
func (w *shardWorker) run(done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	for batch := range w.ch {
		for i := 0; i < len(batch) && w.err == nil; i++ {
			if msg := &batch[i]; msg.isMark {
				w.runTo(msg.mark)
			} else {
				w.admit(msg.server, msg.r)
			}
		}
		w.pool.put(batch)
	}
	if w.err != nil {
		return
	}
	for _, sv := range w.servers {
		if sv == nil {
			continue
		}
		if err := sv.inc.Drain(); err != nil {
			w.err = err
			return
		}
		if m := sv.inc.Makespan(); m > w.makespan {
			w.makespan = m
		}
		w.stats.Accumulate(sv.inc.Stats())
		w.events += sv.inc.Events()
		w.invs += sv.invocations
		if sv.fm != nil {
			w.faults.Accumulate(sv.fm.Stats())
		}
	}
	if w.reg != nil {
		w.reg.AddGhostStats(w.stats)
		w.reg.Counter(obs.CKernEvents).Add(int64(w.events))
		if w.cfg.Faults.Enabled() {
			addFaultStats(w.reg, w.faults)
		}
	}
}

// admit creates the server on first arrival and hands it the task.
func (w *shardWorker) admit(server int, r Routed) {
	local := server - w.lo
	sv := w.servers[local]
	if sv == nil {
		sv = &shardedServer{}
		var sink metrics.Sink
		if w.exact {
			sv.set = &metrics.Set{}
			sink = sv.set
		} else {
			sink = w.acc
		}
		kcfg, gcfg := obsConfigs(w.cfg.Kernel, w.cfg.Ghost, w.cfg.Obs, server)
		policy := w.policies[server]
		wrapped := w.cfg.Obs.WrapSink(server, sink)
		if w.cfg.Faults.Enabled() {
			// Same interposition as RunStreamedServer: the machine sits
			// between the retirer and the policy, and on the record path.
			sv.fm = faults.NewMachine(w.cfg.Faults, server)
			var err error
			if policy, err = sv.fm.WrapPolicy(policy); err != nil {
				w.err = err
				return
			}
			wrapped = sv.fm.WrapSink(wrapped)
		}
		inc, err := simrun.NewIncremental(kcfg, policy, gcfg, wrapped)
		if err != nil {
			w.err = err
			return
		}
		sv.inc = inc
		if sv.fm != nil {
			pool := inc.Pool()
			sv.fm.SetRecycle(func(t *simkern.Task) { pool.Put(t) })
		}
		w.servers[local] = sv
	}
	t := r.applyColdStart(sv.inc.Pool().Get(r.Inv, simkern.TaskID(r.Idx+1)))
	if sv.fm != nil {
		sv.fm.Note(t, r.Inv.Duration, r.Inv.TimeoutMS)
	}
	if err := sv.inc.Admit(t); err != nil {
		w.err = err
		return
	}
	sv.invocations++
}

// runTo advances every live server to the watermark in server-index
// order — the fixed iteration order that makes the shard-local sink's
// push stream deterministic.
func (w *shardWorker) runTo(mark time.Duration) {
	for _, sv := range w.servers {
		if sv == nil {
			continue
		}
		if err := sv.inc.RunTo(mark); err != nil {
			w.err = err
			return
		}
	}
}

// ShardedReplay summarizes a windowed streaming sharded fleet run.
type ShardedReplay struct {
	// Servers and Shards echo the resolved topology.
	Servers, Shards int
	// Dispatch that routed the workload.
	Dispatch Dispatch
	// Invocations is the total arrival count routed.
	Invocations int
	// Makespan is the fleet-wide last completion time.
	Makespan time.Duration
	// Windowed holds the merged per-window + whole-run metrics.
	Windowed *metrics.WindowedAccumulator
	// Stats aggregates the per-server enclaves' full delegation counters
	// (messages, commits, fired vs elided ticks, migrations) across the
	// fleet.
	Stats ghost.Stats
	// Events sums scheduled kernel events across servers.
	Events uint64
	// PerShard breaks invocations and events down by shard, in shard
	// order — run-report material for spotting load imbalance.
	PerShard []obs.ShardUtil
	// Faults aggregates fault activity fleet-wide (router crash/straggler
	// windows plus per-machine kills/retries/give-ups); zero when the
	// plan is disabled.
	Faults faults.Stats
}

// SimulateShardedWindowed streams src through a sharded fleet, folding
// completions into one WindowedAccumulator per shard (width-checked,
// billed at tariff) and merging the shard accumulators pairwise in shard
// order. Memory is O(shards × windows + active tasks), independent of
// the workload length — this is the entry point for the 1,000-server
// ×10-volume multi-day replays.
func SimulateShardedWindowed(cfg Config, src workload.Source, tariff pricing.Tariff, width time.Duration) (*ShardedReplay, error) {
	workers, invocations, _, rfStats, err := runSharded(cfg, src, false, tariff, width)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReplay{
		Servers:     cfg.Servers,
		Shards:      len(workers),
		Dispatch:    cfg.Dispatch,
		Invocations: invocations,
	}
	rep.Faults.Accumulate(rfStats)
	accs := make([]*metrics.WindowedAccumulator, len(workers))
	rep.PerShard = make([]obs.ShardUtil, len(workers))
	for i, w := range workers {
		accs[i] = w.acc
		if w.makespan > rep.Makespan {
			rep.Makespan = w.makespan
		}
		rep.Stats.Accumulate(w.stats)
		rep.Events += w.events
		rep.Faults.Accumulate(w.faults)
		rep.PerShard[i] = obs.ShardUtil{Shard: i, Servers: w.hi - w.lo, Invocations: w.invs, Events: w.events}
	}
	if rep.Windowed, err = metrics.MergeTree(accs); err != nil {
		return nil, err
	}
	if rep.Windowed == nil {
		rep.Windowed, _ = metrics.NewWindowedAccumulator(tariff, width)
	}
	return rep, nil
}

// Simulate routes src across the fleet and simulates every server on the
// lockstep engine with an exact per-server record Set. Records merge
// across servers in global invocation order (Record.ID is 1 + the
// invocation's index in src), so the result is bit-for-bit independent
// of the shard count. It holds every record in memory; use
// SimulateShardedWindowed for long horizons.
func Simulate(cfg Config, src workload.Source) (*Result, error) {
	workers, _, assignment, rfStats, err := runSharded(cfg, src, true, pricing.Tariff{}, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dispatch:   cfg.Dispatch,
		Servers:    cfg.Servers,
		PerServer:  make([]ServerResult, cfg.Servers),
		Assignment: assignment,
	}
	res.Faults.Accumulate(rfStats)
	for s := range res.PerServer {
		res.PerServer[s].Server = s
	}
	for _, w := range workers {
		if w.makespan > res.Makespan {
			res.Makespan = w.makespan
		}
		res.Stats.Accumulate(w.stats)
		res.Events += w.events
		res.Faults.Accumulate(w.faults)
		for local, sv := range w.servers {
			if sv == nil {
				continue
			}
			s := w.lo + local
			sr := &res.PerServer[s]
			sr.Invocations = sv.invocations
			sr.Set = *sv.set
			sort.Slice(sr.Set.Records, func(a, b int) bool { return sr.Set.Records[a].ID < sr.Set.Records[b].ID })
			sr.Makespan = sv.inc.Makespan()
			sr.Preemptions = sr.Set.TotalPreemptions()
			sr.Stats = sv.inc.Stats()
			sr.Events = sv.inc.Events()
			if sv.fm != nil {
				sr.Faults = sv.fm.Stats()
			}
			res.Preemptions += sr.Preemptions
			res.Set.Records = append(res.Set.Records, sr.Set.Records...)
		}
	}
	sort.Slice(res.Set.Records, func(i, j int) bool {
		return res.Set.Records[i].ID < res.Set.Records[j].ID
	})
	return res, nil
}

// runSharded is the router + shard-worker engine behind Simulate and
// SimulateShardedWindowed. It returns the finished workers (in shard
// order), the total invocation count, and the per-invocation assignment
// (exact mode only).
func runSharded(cfg Config, src workload.Source, exact bool, tariff pricing.Tariff, width time.Duration) ([]*shardWorker, int, []int, faults.Stats, error) {
	if cfg.Servers < 1 {
		return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: Servers must be >= 1, got %d", cfg.Servers)
	}
	if cfg.Policy == nil {
		return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: nil Policy factory")
	}
	if cfg.Kernel.Cores < 1 {
		return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: Kernel.Cores must be >= 1, got %d", cfg.Kernel.Cores)
	}
	if src == nil {
		return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: nil workload source")
	}
	if cfg.Dispatch == "" {
		cfg.Dispatch = DispatchLeastLoaded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Window < 0 {
		return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: negative look-ahead window %v", cfg.Window)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, 0, nil, faults.Stats{}, err
	}
	chunk := cfg.Window
	if chunk == 0 {
		chunk = simrun.DefaultWindow
	}
	shards, err := shardPlan(cfg.Servers, cfg.Shards)
	if err != nil {
		return nil, 0, nil, faults.Stats{}, err
	}

	// Policies are built sequentially up front so factories need not be
	// goroutine-safe.
	policies := make([]ghost.Policy, cfg.Servers)
	for s := range policies {
		if policies[s] = cfg.Policy(); policies[s] == nil {
			return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: Policy factory returned nil for server %d", s)
		}
	}

	workers := make([]*shardWorker, len(shards))
	pool := newBatchPool(len(shards))
	serverShard := make([]int, cfg.Servers)
	done := make(chan struct{})
	for i, rg := range shards {
		w := &shardWorker{
			cfg:      &cfg,
			shard:    i,
			lo:       rg[0],
			hi:       rg[1],
			policies: policies,
			exact:    exact,
			servers:  make([]*shardedServer, rg[1]-rg[0]),
			ch:       make(chan []shardMsg, cap(pool.free)), // holds every batch: a send never blocks
			pool:     pool,
		}
		if cfg.Obs.Registry() != nil {
			w.reg = obs.NewRegistry()
		}
		if !exact {
			if w.acc, err = metrics.NewWindowedAccumulator(tariff, width); err != nil {
				return nil, 0, nil, faults.Stats{}, err
			}
		}
		for s := rg[0]; s < rg[1]; s++ {
			serverShard[s] = i
		}
		workers[i] = w
	}
	for _, w := range workers {
		go w.run(done)
	}
	// batches[i] is the batch the router is filling for shard i, nil
	// until its first message since the last send.
	batches := make([][]shardMsg, len(workers))
	push := func(i int, msg shardMsg) {
		if batches[i] == nil {
			batches[i] = pool.get()
		}
		batches[i] = append(batches[i], msg)
	}
	send := func(i int) {
		workers[i].ch <- batches[i]
		batches[i] = nil
	}
	closeAll := func() {
		for i, w := range workers {
			if len(batches[i]) > 0 {
				w.ch <- batches[i]
			}
			close(w.ch)
		}
		for range workers {
			<-done
		}
	}

	// The router: dispatch over the causal fleet model, then warm-pool
	// bookings, one arrival at a time. The warm pools, like the fleet
	// model, are causal front-end state, so every cold/warm decision is
	// fixed before the arrival reaches a server.
	model := NewFleetModel(cfg.Servers, cfg.Kernel.Cores)
	disp, err := NewDispatcher(cfg.Dispatch, cfg.Seed, model)
	if err != nil {
		closeAll()
		return nil, 0, nil, faults.Stats{}, err
	}
	var pools *WarmPools
	if cfg.ColdStart.Enabled() {
		pools = NewWarmPools(cfg.ColdStart, cfg.Servers)
		if cfg.ColdStart.WarmFirst {
			disp = WarmFirstDispatcher(disp, pools, model)
		}
	}
	candidates := make([]int, cfg.Servers)
	for s := range candidates {
		candidates[s] = s
	}
	rf := newRouteFaults(cfg.Faults, cfg.Servers, model, pools, cfg.Obs.Tracer())

	// Router-side observation: watermark/cold-start tallies and progress
	// live on this single goroutine, so they are shard-count invariant
	// by construction; per-server enclave counters fold in via the shard
	// registries instead.
	tr := cfg.Obs.Tracer()
	pg := cfg.Obs.Progress()
	var wmCount, warmHits, coldMisses *obs.Counter
	if reg := cfg.Obs.Registry(); reg != nil {
		wmCount = reg.Counter(obs.CWatermarks)
		if pools != nil {
			warmHits = reg.Counter(obs.CColdWarmHits)
			coldMisses = reg.Counter(obs.CColdMisses)
		}
	}

	var assignment []int
	idx := 0
	lastArr := time.Duration(-1)
	nextMark := chunk
	var routeErr error
	src(func(inv workload.Invocation) bool {
		if inv.Arrival < lastArr {
			routeErr = fmt.Errorf("cluster: invocations not sorted by arrival at index %d", idx)
			return false
		}
		lastArr = inv.Arrival
		// A watermark T is only safe once an arrival strictly beyond T
		// proves every arrival ≤ T has been handed over.
		for inv.Arrival > nextMark {
			for i := range workers {
				push(i, shardMsg{mark: nextMark, isMark: true})
				send(i)
			}
			if wmCount != nil {
				wmCount.Inc()
			}
			tr.Watermark(nextMark, int64(idx))
			if pg != nil {
				pg.Watermark.Store(int64(nextMark))
			}
			nextMark += chunk
		}
		cand := candidates
		if rf != nil {
			cand = rf.route(inv.Arrival)
		}
		var s int
		if rf != nil && len(cand) == 0 {
			s = rf.fallback()
		} else {
			s = disp.Pick(inv, cand)
		}
		if s < 0 || s >= cfg.Servers {
			routeErr = fmt.Errorf("cluster: dispatch %q picked server %d of %d", cfg.Dispatch, s, cfg.Servers)
			return false
		}
		var slow time.Duration
		if rf != nil {
			slow = rf.slow(s, inv.Arrival, inv.Duration)
		}
		var cold time.Duration
		if pools == nil {
			model.AssignDemand(s, inv.Arrival, inv.Duration+slow)
		} else {
			if pools.IsCold(s, inv, inv.Arrival) {
				cold = cfg.ColdStart.Latency
			}
			finish := model.AssignDemand(s, inv.Arrival, inv.Duration+cold+slow)
			pools.Book(s, inv, inv.Arrival, finish, cold > 0)
			if cold > 0 {
				if coldMisses != nil {
					coldMisses.Inc()
				}
			} else if warmHits != nil {
				warmHits.Inc()
			}
		}
		if exact {
			assignment = append(assignment, s)
		}
		sh := serverShard[s]
		push(sh, shardMsg{r: Routed{Inv: inv, Idx: idx, ColdStart: cold, Slow: slow}, server: s})
		if len(batches[sh]) == shardBatch {
			send(sh)
		}
		idx++
		if pg != nil {
			pg.Routed.Add(1)
		}
		return true
	})
	closeAll()
	if routeErr != nil {
		return nil, 0, nil, faults.Stats{}, routeErr
	}
	if idx == 0 {
		return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: empty workload")
	}
	for _, w := range workers {
		if w.err != nil {
			return nil, 0, nil, faults.Stats{}, fmt.Errorf("cluster: shard %d (servers %d-%d): %w", w.shard, w.lo, w.hi-1, w.err)
		}
	}
	var rfStats faults.Stats
	if rf != nil {
		rfStats = rf.stats()
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		regs := make([]*obs.Registry, len(workers))
		for i, w := range workers {
			regs[i] = w.reg
		}
		reg.Merge(obs.MergeRegistryTree(regs))
		reg.Counter(obs.CInvocations).Add(int64(idx))
		if rf != nil {
			reg.Counter(obs.CFaultCrashes).Add(rfStats.Crashes)
			reg.Counter(obs.CFaultStragglers).Add(rfStats.StragglerWindows)
		}
	}
	return workers, idx, assignment, rfStats, nil
}
