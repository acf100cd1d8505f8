// The lockstep fleet engine (Fleet). A single router goroutine owns the
// arrival order (dispatch is causally deterministic), hands each Routed
// invocation to the shard owning its server, and broadcasts a watermark T
// once every arrival ≤ T has been handed over. Each shard worker owns its
// servers' machines outright: a server joins its shard with its policy,
// sink and fault machine; on an arrival the shard admits the task
// (simrun.Incremental, whose open admission makes it equal to a fully
// pre-seeded run of the server's share, DESIGN.md §7), on a watermark it
// advances its live servers to T in server-index order, and on a retire
// it drains that server at once and drops it. When the source drains,
// shards drain their remaining machines and the results merge in a fixed
// order (a pairwise metrics.MergeTree over shards for the windowed
// replay; an id-sorted record merge for Simulate; per-server sinks for
// the elastic fleet), so the result is bit-for-bit independent of how
// the shard goroutines were scheduled. Nothing is materialized up front,
// so the windowed replay of a 1,000-server ×10 24 h window (~90M
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

// msgKind classifies a router→shard message.
type msgKind uint8

const (
	msgAdmit  msgKind = iota // a routed arrival for m
	msgMark                  // a watermark: advance every live server to mark
	msgJoin                  // m joins the shard: build its machine
	msgRetire                // m receives nothing more: drain it and drop it
)

// shardMsg is one entry of a router→shard handoff batch.
type shardMsg struct {
	r    Routed
	m    *Member
	mark time.Duration
	kind msgKind
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

// Member is one server of a lockstep fleet: what it brings when it joins
// its shard, and, once it has drained, its share of the run. The router
// builds it and never touches it again; its shard owns it from the join
// on; the results are read after Fleet.Close.
type Member struct {
	// Index is the server's fleet index.
	Index int
	// Policy is the server's scheduling policy.
	Policy ghost.Policy
	// Sink receives the server's completion records.
	Sink metrics.Sink
	// Faults, when non-nil, is the server's fault machine, interposed on
	// the policy, the sink and every admitted task (DESIGN.md §14).
	Faults *faults.Machine

	// Routed counts admitted invocations; Completed and Failed count
	// their records, and always sum to Routed once the server drained.
	Routed, Completed, Failed int
	// Preemptions sums preemption counts over the server's records.
	Preemptions int
	// Makespan is the server's last completion instant.
	Makespan time.Duration
	// Stats holds the server enclave's delegation counters.
	Stats ghost.Stats
	// Events is how many kernel events the server's run scheduled.
	Events uint64

	shard int
	inc   *simrun.Incremental // nil before the join and after the drain
	count countingSink
}

// countingSink tallies a server's records on their way to its sink: the
// bookkeeping the drain-time conservation check needs, whatever the
// caller collects.
type countingSink struct {
	inner                       metrics.Sink
	completed, failed, preempts int
}

// Push implements metrics.Sink.
func (c *countingSink) Push(r metrics.Record) {
	if r.Failed {
		c.failed++
	} else {
		c.completed++
	}
	c.preempts += r.Preemptions
	if c.inner != nil {
		c.inner.Push(r)
	}
}

// shardWorker owns the machines of the servers that joined its shard.
type shardWorker struct {
	fleet *Fleet
	shard int
	// live are the joined, not yet drained servers, sorted by index: the
	// fixed order in which a watermark advances them.
	live []*Member
	// members are every server that ever joined, in join order.
	members []*Member
	ch      chan []shardMsg // handoff batches, in routing order
	err     error
}

// run consumes the shard's handoff batches until the router closes the
// channel, then drains every live machine. After a failure it keeps
// consuming (and discarding) batches so the router never blocks on a dead
// shard.
func (w *shardWorker) run() {
	defer func() { w.fleet.done <- struct{}{} }()
	for batch := range w.ch {
		for i := 0; i < len(batch) && w.err == nil; i++ {
			msg := &batch[i]
			switch msg.kind {
			case msgAdmit:
				w.admit(msg.m, msg.r)
			case msgMark:
				w.runTo(msg.mark)
			case msgJoin:
				w.join(msg.m)
			case msgRetire:
				w.retire(msg.m)
			}
		}
		w.fleet.pool.put(batch)
	}
	for _, m := range w.live {
		if w.err != nil {
			return
		}
		w.drain(m)
	}
	w.live = nil
}

// fail records the shard's first error, naming the server.
func (w *shardWorker) fail(m *Member, err error) {
	w.err = fmt.Errorf("server %d: %w", m.Index, err)
}

// join builds m's machine and adds it to the live list in index order.
// The fault machine sits between the retirer and the policy, and on the
// record path ahead of the counting sink.
func (w *shardWorker) join(m *Member) {
	f := w.fleet
	kcfg, gcfg := f.kcfg, f.gcfg
	if tr := f.obs.Tracer(); tr != nil {
		kcfg.Probe = tr.KernelProbe(m.Index)
		gcfg.Probe = tr.GhostProbe(m.Index)
	}
	policy := m.Policy
	m.count.inner = f.obs.WrapSink(m.Index, m.Sink)
	var sink metrics.Sink = &m.count
	if m.Faults != nil {
		var err error
		if policy, err = m.Faults.WrapPolicy(policy); err != nil {
			w.fail(m, err)
			return
		}
		sink = m.Faults.WrapSink(sink)
	}
	inc, err := simrun.NewIncremental(kcfg, policy, gcfg, sink)
	if err != nil {
		w.fail(m, err)
		return
	}
	m.inc = inc
	if m.Faults != nil {
		pool := inc.Pool()
		m.Faults.SetRecycle(func(t *simkern.Task) { pool.Put(t) })
	}
	i := sort.Search(len(w.live), func(i int) bool { return w.live[i].Index > m.Index })
	w.live = append(w.live, nil)
	copy(w.live[i+1:], w.live[i:])
	w.live[i] = m
	w.members = append(w.members, m)
}

// admit hands m the routed task.
func (w *shardWorker) admit(m *Member, r Routed) {
	t := r.applyColdStart(m.inc.Pool().Get(r.Inv, simkern.TaskID(r.Idx+1)))
	if m.Faults != nil {
		m.Faults.Note(t, r.Inv.Duration, r.Inv.TimeoutMS)
	}
	if err := m.inc.Admit(t); err != nil {
		w.fail(m, err)
		return
	}
	m.Routed++
}

// runTo advances every live server to the watermark in server-index
// order — the fixed iteration order that makes a shard-local sink's push
// stream deterministic.
func (w *shardWorker) runTo(mark time.Duration) {
	for _, m := range w.live {
		if err := m.inc.RunTo(mark); err != nil {
			w.fail(m, err)
			return
		}
	}
}

// retire drains m now and drops it from the live list. m receives
// nothing after its retire, so draining it ahead of the watermarks
// changes none of its records.
func (w *shardWorker) retire(m *Member) {
	i := sort.Search(len(w.live), func(i int) bool { return w.live[i].Index >= m.Index })
	w.live = append(w.live[:i], w.live[i+1:]...)
	w.drain(m)
}

// drain runs m to quiescence, checks that every routed invocation left
// exactly one record, and keeps m's results.
func (w *shardWorker) drain(m *Member) {
	if err := m.inc.Drain(); err != nil {
		w.fail(m, err)
		return
	}
	m.Completed, m.Failed, m.Preemptions = m.count.completed, m.count.failed, m.count.preempts
	if m.Completed+m.Failed != m.Routed {
		w.fail(m, fmt.Errorf("retired %d of %d routed invocations", m.Completed+m.Failed, m.Routed))
		return
	}
	m.Makespan = m.inc.Makespan()
	m.Stats = m.inc.Stats()
	m.Events = m.inc.Events()
	m.inc = nil
}

// Fleet is the router's handle on the lockstep engine: it places joins,
// arrivals and retires on the owning shard's handoff batch and emits the
// watermarks. Its methods must be called from one goroutine, in routing
// order, and Close must be called exactly once.
type Fleet struct {
	kcfg    simkern.Config
	gcfg    ghost.Config
	obs     *obs.Obs
	shardOf func(server int) int
	workers []*shardWorker
	pool    *batchPool
	// batches[i] is the batch the router is filling for shard i, nil
	// until its first message since the last send.
	batches  [][]shardMsg
	done     chan struct{}
	step     time.Duration
	nextMark time.Duration
	routed   int
	// Router-side observation: watermark tallies and progress live on
	// the routing goroutine, so they are shard-count invariant by
	// construction.
	wmCount *obs.Counter
	tr      *obs.Tracer
	pg      *obs.Progress
}

// NewFleet starts shards shard workers. Every server runs on kcfg and
// gcfg with o's probes; shardOf maps a server index to its shard; window
// (≥ 0) is the watermark step, zero meaning simrun.DefaultWindow. Records
// depend on neither the partition nor the step (DESIGN.md §7, §11).
func NewFleet(kcfg simkern.Config, gcfg ghost.Config, o *obs.Obs, window time.Duration, shards int, shardOf func(server int) int) *Fleet {
	if window == 0 {
		window = simrun.DefaultWindow
	}
	f := &Fleet{
		kcfg: kcfg, gcfg: gcfg, obs: o, shardOf: shardOf,
		workers:  make([]*shardWorker, shards),
		pool:     newBatchPool(shards),
		batches:  make([][]shardMsg, shards),
		done:     make(chan struct{}),
		step:     window,
		nextMark: window,
		tr:       o.Tracer(),
		pg:       o.Progress(),
	}
	if reg := o.Registry(); reg != nil {
		f.wmCount = reg.Counter(obs.CWatermarks)
	}
	for i := range f.workers {
		f.workers[i] = &shardWorker{
			fleet: f,
			shard: i,
			ch:    make(chan []shardMsg, cap(f.pool.free)), // holds every batch: a send never blocks
		}
	}
	for _, w := range f.workers {
		go w.run()
	}
	return f
}

// push appends msg to shard i's batch and sends the batch once it is
// full or holds a watermark.
func (f *Fleet) push(i int, msg shardMsg) {
	if f.batches[i] == nil {
		f.batches[i] = f.pool.get()
	}
	f.batches[i] = append(f.batches[i], msg)
	if len(f.batches[i]) == shardBatch || msg.kind == msgMark {
		f.workers[i].ch <- f.batches[i]
		f.batches[i] = nil
	}
}

// Advance broadcasts every watermark before arrival. A watermark T is
// only safe once an arrival strictly beyond T proves every arrival ≤ T
// has been handed over, so call it with each arrival before routing it.
func (f *Fleet) Advance(arrival time.Duration) {
	for arrival > f.nextMark {
		for i := range f.workers {
			f.push(i, shardMsg{mark: f.nextMark, kind: msgMark})
		}
		if f.wmCount != nil {
			f.wmCount.Inc()
		}
		f.tr.Watermark(f.nextMark, int64(f.routed))
		if f.pg != nil {
			f.pg.Watermark.Store(int64(f.nextMark))
		}
		f.nextMark += f.step
	}
}

// Join adds m to its shard; its machine is built there.
func (f *Fleet) Join(m *Member) {
	m.shard = f.shardOf(m.Index)
	f.push(m.shard, shardMsg{m: m, kind: msgJoin})
}

// Admit hands the routed arrival r to the joined server m.
func (f *Fleet) Admit(m *Member, r Routed) {
	f.push(m.shard, shardMsg{r: r, m: m, kind: msgAdmit})
	f.routed++
}

// Retire tells m's shard that m receives nothing more: the shard drains
// it at once and drops it.
func (f *Fleet) Retire(m *Member) {
	f.push(m.shard, shardMsg{m: m, kind: msgRetire})
}

// Close ends routing: every shard drains its live servers, and Close
// waits for all of them. It returns the first shard's error, or folds
// the servers' counters into the obs registry.
func (f *Fleet) Close() error {
	for i, w := range f.workers {
		if len(f.batches[i]) > 0 {
			w.ch <- f.batches[i]
		}
		close(w.ch)
	}
	for range f.workers {
		<-f.done
	}
	for _, w := range f.workers {
		if w.err != nil {
			return fmt.Errorf("shard %d %w", w.shard, w.err)
		}
	}
	reg := f.obs.Registry()
	if reg == nil {
		return nil
	}
	reg.Counter(obs.CInvocations).Add(int64(f.routed))
	for _, w := range f.workers {
		for _, m := range w.members {
			reg.AddGhostStats(m.Stats)
			reg.Counter(obs.CKernEvents).Add(int64(m.Events))
			if m.Faults != nil {
				addFaultStats(reg, m.Faults.Stats())
			}
		}
	}
	return nil
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
	run, err := runSharded(cfg, src, false, tariff, width)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReplay{
		Servers:     cfg.Servers,
		Shards:      len(run.ranges),
		Dispatch:    cfg.Dispatch,
		Invocations: run.fleet.routed,
		PerShard:    make([]obs.ShardUtil, len(run.ranges)),
	}
	rep.Faults.Accumulate(run.faults)
	for i, w := range run.fleet.workers {
		su := obs.ShardUtil{Shard: i, Servers: run.ranges[i][1] - run.ranges[i][0]}
		for _, m := range w.members {
			rep.Makespan = max(rep.Makespan, m.Makespan)
			rep.Stats.Accumulate(m.Stats)
			if m.Faults != nil {
				rep.Faults.Accumulate(m.Faults.Stats())
			}
			su.Invocations += m.Routed
			su.Events += m.Events
		}
		rep.Events += su.Events
		rep.PerShard[i] = su
	}
	if rep.Windowed, err = metrics.MergeTree(run.accs); err != nil {
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
	run, err := runSharded(cfg, src, true, pricing.Tariff{}, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dispatch:   cfg.Dispatch,
		Servers:    cfg.Servers,
		PerServer:  make([]ServerResult, cfg.Servers),
		Assignment: run.assignment,
	}
	res.Faults.Accumulate(run.faults)
	for s := range res.PerServer {
		res.PerServer[s].Server = s
	}
	for _, m := range run.members {
		if m == nil {
			continue
		}
		sr := &res.PerServer[m.Index]
		sr.Invocations = m.Routed
		sr.Set = *m.Sink.(*metrics.Set)
		sort.Slice(sr.Set.Records, func(a, b int) bool { return sr.Set.Records[a].ID < sr.Set.Records[b].ID })
		sr.Makespan = m.Makespan
		sr.Preemptions = m.Preemptions
		sr.Stats = m.Stats
		sr.Events = m.Events
		if m.Faults != nil {
			sr.Faults = m.Faults.Stats()
		}
		res.Makespan = max(res.Makespan, m.Makespan)
		res.Preemptions += sr.Preemptions
		res.Stats.Accumulate(sr.Stats)
		res.Events += sr.Events
		res.Faults.Accumulate(sr.Faults)
		res.Set.Records = append(res.Set.Records, sr.Set.Records...)
	}
	sort.Slice(res.Set.Records, func(i, j int) bool {
		return res.Set.Records[i].ID < res.Set.Records[j].ID
	})
	return res, nil
}

// fixedRun is a finished fixed-fleet run.
type fixedRun struct {
	fleet      *Fleet
	ranges     [][2]int                       // each shard's contiguous server range
	members    []*Member                      // by server; nil where nothing was routed
	accs       []*metrics.WindowedAccumulator // windowed mode's sinks, by shard
	assignment []int                          // exact mode only
	faults     faults.Stats                   // router-side crash and straggler windows
}

// runSharded is the fixed-fleet router behind Simulate and
// SimulateShardedWindowed: it resolves the contiguous shard ranges and
// routes src onto the lockstep engine. A server joins its shard on its
// first arrival, with an exact record Set of its own in exact mode, and
// otherwise its shard's windowed accumulator (width, billed at tariff).
func runSharded(cfg Config, src workload.Source, exact bool, tariff pricing.Tariff, width time.Duration) (*fixedRun, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: Servers must be >= 1, got %d", cfg.Servers)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: nil Policy factory")
	}
	if cfg.Kernel.Cores < 1 {
		return nil, fmt.Errorf("cluster: Kernel.Cores must be >= 1, got %d", cfg.Kernel.Cores)
	}
	if src == nil {
		return nil, fmt.Errorf("cluster: nil workload source")
	}
	if cfg.Dispatch == "" {
		cfg.Dispatch = DispatchLeastLoaded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("cluster: negative look-ahead window %v", cfg.Window)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	ranges, err := shardPlan(cfg.Servers, cfg.Shards)
	if err != nil {
		return nil, err
	}
	run := &fixedRun{ranges: ranges, members: make([]*Member, cfg.Servers)}
	if !exact {
		run.accs = make([]*metrics.WindowedAccumulator, len(ranges))
		for i := range run.accs {
			if run.accs[i], err = metrics.NewWindowedAccumulator(tariff, width); err != nil {
				return nil, err
			}
		}
	}

	// Policies are built sequentially up front so factories need not be
	// goroutine-safe.
	policies := make([]ghost.Policy, cfg.Servers)
	for s := range policies {
		if policies[s] = cfg.Policy(); policies[s] == nil {
			return nil, fmt.Errorf("cluster: Policy factory returned nil for server %d", s)
		}
	}

	model := NewFleetModel(cfg.Servers, cfg.Kernel.Cores)
	router, err := NewRouter(cfg.Dispatch, cfg.Seed, model, cfg.ColdStart, cfg.Obs)
	if err != nil {
		return nil, err
	}
	rf := newRouteFaults(cfg.Faults, cfg.Servers, model, router.Pools(), cfg.Obs.Tracer())
	router.faults = rf
	candidates := make([]int, cfg.Servers)
	for s := range candidates {
		candidates[s] = s
	}
	serverShard := make([]int, cfg.Servers)
	for i, rg := range ranges {
		for s := rg[0]; s < rg[1]; s++ {
			serverShard[s] = i
		}
	}
	run.fleet = NewFleet(cfg.Kernel, cfg.Ghost, cfg.Obs, cfg.Window, len(ranges), func(s int) int { return serverShard[s] })

	lastArr := time.Duration(-1)
	var routeErr error
	src(func(inv workload.Invocation) bool {
		if inv.Arrival < lastArr {
			routeErr = fmt.Errorf("cluster: invocations not sorted by arrival at index %d", run.fleet.routed)
			return false
		}
		lastArr = inv.Arrival
		run.fleet.Advance(inv.Arrival)
		cand, fallback := candidates, -1
		if rf != nil {
			if cand = rf.route(inv.Arrival); len(cand) == 0 {
				fallback = rf.fallback()
			}
		}
		s, r, _, err := router.Route(inv, run.fleet.routed, cand, fallback)
		if err != nil {
			routeErr = err
			return false
		}
		if exact {
			run.assignment = append(run.assignment, s)
		}
		m := run.members[s]
		if m == nil {
			m = &Member{Index: s, Policy: policies[s]}
			if exact {
				m.Sink = &metrics.Set{}
			} else {
				m.Sink = run.accs[serverShard[s]]
			}
			if cfg.Faults.Enabled() {
				m.Faults = faults.NewMachine(cfg.Faults, s)
			}
			run.members[s] = m
			run.fleet.Join(m)
		}
		run.fleet.Admit(m, r)
		return true
	})
	if err := run.fleet.Close(); err != nil && routeErr == nil {
		routeErr = fmt.Errorf("cluster: %w", err)
	}
	if routeErr != nil {
		return nil, routeErr
	}
	if run.fleet.routed == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	if rf != nil {
		run.faults = rf.stats()
		if reg := cfg.Obs.Registry(); reg != nil {
			reg.Counter(obs.CFaultCrashes).Add(run.faults.Crashes)
			reg.Counter(obs.CFaultStragglers).Add(run.faults.StragglerWindows)
		}
	}
	return run, nil
}
