// The lockstep fleet engine (Fleet). A single router goroutine owns the
// arrival order (dispatch is causally deterministic), hands each Routed
// invocation to the shard owning its server, and broadcasts a watermark T
// once every arrival ≤ T has been handed over. Each shard worker owns its
// servers' machines outright: a server joins its shard with its policy,
// sink and fault machine; an arrival waits in its server's pending queue
// as the plain Routed value, in fixed chunks the shard recycles; on a
// watermark the shard advances its live servers to T in server-index
// order, admitting each pending arrival as a task only when the server's
// clock reaches it (simrun.Incremental,
// whose open admission makes it equal to a fully pre-seeded run of the
// server's share, DESIGN.md §7), and on a retire it drains that server
// at once and drops it. When the source drains, shards drain their
// remaining machines and the results merge in a fixed order (a pairwise
// metrics.MergeTree over shards for the windowed replay; per-server
// sinks for the elastic fleet), or, on an exact fleet, every record was
// written straight into the slot of its ID (metrics.Slots), so the
// result is bit-for-bit independent of how the shard goroutines were
// scheduled. Nothing is materialized up front, so the windowed replay of
// a 1,000-server ×10 24 h window (~90M invocations) runs in memory
// bounded by due tasks, one watermark step's pending arrivals, state for
// the servers that got work (the routing state indexed by server lives in
// 64-server pages allocated at first use) and the windows. See DESIGN.md
// §11 and §12.
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
	r Routed
	m *Member
	// blk is the exact-record block holding an admitted arrival's slot,
	// on a fleet that keeps exact records.
	blk  *metrics.SlotBlock
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
	// memory (DESIGN.md §16 has the sweep). At 88 B a message these
	// batches take ≈360 KB, plus 5.5 KB for each shard's own.
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
	// Sink receives the server's completion records. It is unused on a
	// fleet that keeps exact records, which writes them into its slots.
	Sink metrics.Sink
	// Faults, when non-nil, is the server's fault machine, interposed on
	// the policy, the sink and every admitted task (DESIGN.md §14).
	Faults *faults.Machine
	// Result is the server's share of the run. Its shard counts each
	// admission and record into it and fills the rest when the server
	// drains.
	Result ServerResult

	shard int
	inc   *simrun.Incremental // nil before the join and after the drain
	count countingSink
	// pendHead and pendTail list the chunks holding the routed arrivals
	// the server's clock has not yet reached, in routing order; both are
	// nil when none wait. The router marks T only after every arrival ≤
	// T, so each watermark empties the list and hands every chunk back to
	// the shard's free list.
	pendHead, pendTail *pendChunk
}

// pendLen is how many routed arrivals a pending chunk holds. Chunks are
// recycled through their shard, so a shard holds about one watermark
// step's arrivals in chunks plus one part-filled chunk per server with
// arrivals. Longer chunks hold more empty slots: on the benchmark's
// sharded fleets 16 allocated 3–8% less than 32, and 64 and 128 more,
// while 32 halves the chunk changes of 16 (DESIGN.md §7).
const pendLen = 32

// pendChunk is a run of one server's pending arrivals. next comes first
// so the collector scans one pointer word, not the whole chunk.
type pendChunk struct {
	next *pendChunk
	n    int
	r    [pendLen]Routed
}

// countingSink tallies a server's records into its share on their way to
// its sink: the bookkeeping the drain-time conservation check needs, and
// the server's busy time, whatever the caller collects.
type countingSink struct {
	inner metrics.Sink
	share *ServerResult
}

// Push implements metrics.Sink.
func (c *countingSink) Push(r metrics.Record) {
	if r.Failed {
		c.share.Failed++
	} else {
		c.share.Completed++
		c.share.Busy += r.Execution()
	}
	c.share.Preemptions += int(r.Preemptions)
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
	// slots is the shard's view of the fleet's exact-record slots; nil
	// unless the fleet keeps exact records.
	slots *metrics.SlotView
	ch    chan []shardMsg // handoff batches, in routing order
	err   error
	// tasks is the task pool every machine of the shard draws its
	// admitted tasks from and recycles them into, so the shard holds
	// tasks for its own peak concurrency, not each server's; only the
	// shard's goroutine touches it.
	tasks workload.TaskPool
	// free lists the pending chunks no server holds; only the shard's
	// goroutine touches it. made counts the chunks ever allocated.
	free *pendChunk
	made int
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
				if msg.blk != nil {
					w.slots.Learn(msg.blk)
				}
				// The arrival waits until its server's clock reaches it.
				w.queue(msg.m, msg.r)
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
	inner := m.Sink
	if w.slots != nil {
		inner = w.slots.Writer(m.Index)
	}
	m.count = countingSink{inner: f.obs.WrapSink(m.Index, inner), share: &m.Result}
	var sink metrics.Sink = &m.count
	if m.Faults != nil {
		var err error
		if policy, err = m.Faults.WrapPolicy(policy); err != nil {
			w.fail(m, err)
			return
		}
		sink = m.Faults.WrapSink(sink)
	}
	inc, err := simrun.NewIncremental(kcfg, policy, gcfg, sink, &w.tasks)
	if err != nil {
		w.fail(m, err)
		return
	}
	m.inc = inc
	if m.Faults != nil {
		m.Faults.SetRecycle(&w.tasks)
	}
	i := sort.Search(len(w.live), func(i int) bool { return w.live[i].Index > m.Index })
	w.live = append(w.live, nil)
	copy(w.live[i+1:], w.live[i:])
	w.live[i] = m
	w.members = append(w.members, m)
}

// queue appends r to m's pending arrivals, starting a chunk when the
// tail one is full.
func (w *shardWorker) queue(m *Member, r Routed) {
	c := m.pendTail
	if c == nil || c.n == pendLen {
		if c = w.free; c != nil {
			w.free, c.next = c.next, nil
		} else {
			c = &pendChunk{}
			w.made++
		}
		if m.pendTail == nil {
			m.pendHead = c
		} else {
			m.pendTail.next = c
		}
		m.pendTail = c
	}
	c.r[c.n] = r
	c.n++
}

// admitPending turns m's pending arrivals into tasks, one instant at a
// time: the machine first runs to the instant before, so a task, its
// arrival event and its fault state exist only once they are due.
// Admitted arrivals order before every same-instant event (the admit
// class), so the run equals one that admitted them all at once. Each
// chunk goes back to the free list once its arrivals are admitted; an
// instant's arrivals may span chunks, and the machine runs up to that
// instant only once.
func (w *shardWorker) admitPending(m *Member) error {
	at := time.Duration(-1)
	for c := m.pendHead; c != nil; c = m.pendHead {
		for i := range c.n {
			r := &c.r[i]
			if a := r.Inv.Arrival; a != at {
				at = a
				// at-1 ≥ 1 here: RunTo(0) would mean "no limit".
				if at-1 > m.inc.Now() {
					if err := m.inc.RunTo(at - 1); err != nil {
						return err
					}
				}
			}
			t := r.applyColdStart(w.tasks.Get(r.Inv, simkern.TaskID(r.Idx+1)))
			if m.Faults != nil {
				m.Faults.Note(t, r.Inv.Duration, r.Inv.TimeoutMS)
			}
			if err := m.inc.Admit(t); err != nil {
				return err
			}
			m.Result.Invocations++
		}
		m.pendHead, c.next, c.n = c.next, w.free, 0
		w.free = c
	}
	m.pendTail = nil
	return nil
}

// runTo advances every live server to the watermark in server-index
// order — the fixed iteration order that makes a shard-local sink's push
// stream deterministic.
func (w *shardWorker) runTo(mark time.Duration) {
	for _, m := range w.live {
		err := w.admitPending(m)
		if err == nil {
			err = m.inc.RunTo(mark)
		}
		if err != nil {
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

// drain admits m's pending arrivals, runs m to quiescence, checks that
// every routed invocation left exactly one record, and fills the rest of
// m's share.
func (w *shardWorker) drain(m *Member) {
	err := w.admitPending(m)
	if err == nil {
		err = m.inc.Drain()
	}
	if err != nil {
		w.fail(m, err)
		return
	}
	r := &m.Result
	if r.Completed+r.Failed != r.Invocations {
		w.fail(m, fmt.Errorf("retired %d of %d routed invocations", r.Completed+r.Failed, r.Invocations))
		return
	}
	r.Server, r.Makespan, r.Stats, r.Events = m.Index, m.inc.Makespan(), m.inc.Stats(), m.inc.Events()
	r.SampleSteps = m.inc.SampleSteps()
	if m.Faults != nil {
		r.Faults = m.Faults.Stats()
	}
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
	slots   *metrics.Slots
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
//
// A fleet given slots keeps exact records: every server writes each of
// its records into the slot of its ID, and the caller reads them with
// slots.Close after Close. Its members' Sinks are unused.
func NewFleet(kcfg simkern.Config, gcfg ghost.Config, o *obs.Obs, window time.Duration, shards int, shardOf func(server int) int, slots *metrics.Slots) *Fleet {
	if window == 0 {
		window = simrun.DefaultWindow
	}
	f := &Fleet{
		kcfg: kcfg, gcfg: gcfg, obs: o, shardOf: shardOf,
		workers:  make([]*shardWorker, shards),
		slots:    slots,
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
		if slots != nil {
			f.workers[i].slots = slots.View()
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

// Admit hands the routed arrival r to the joined server m. On a fleet
// that keeps exact records, r.Idx must be the number of arrivals admitted
// before it: its record takes the next slot.
func (f *Fleet) Admit(m *Member, r Routed) {
	msg := shardMsg{r: r, m: m, kind: msgAdmit}
	if f.slots != nil {
		msg.blk = f.slots.Route()
	}
	f.push(m.shard, msg)
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
	var t Totals
	machines := false
	for _, w := range f.workers {
		for _, m := range w.members {
			t.Add(&m.Result)
			machines = machines || m.Faults != nil
		}
	}
	reg.Counter(obs.CInvocations).Add(int64(f.routed))
	reg.AddGhostStats(t.Stats)
	reg.Counter(obs.CKernEvents).Add(int64(t.Events))
	if machines {
		addFaultStats(reg, t.Faults)
	}
	return nil
}

// ShardedReplay summarizes a windowed streaming sharded fleet run.
type ShardedReplay struct {
	// Servers and Shards echo the resolved topology.
	Servers, Shards int
	// Dispatch that routed the workload.
	Dispatch Dispatch
	// Totals sums the servers' shares (Invocations is the arrival count
	// routed); its Faults also holds the router-side crash and straggler
	// windows.
	Totals
	// Windowed holds the merged per-window + whole-run metrics.
	Windowed *metrics.WindowedAccumulator
	// PerShard breaks invocations and events down by shard, in shard
	// order — run-report material for spotting load imbalance.
	PerShard []obs.ShardUtil
}

// SimulateShardedWindowed streams src through a sharded fleet, folding
// completions into one WindowedAccumulator per shard (width-checked,
// billed at tariff) and merging the shard accumulators pairwise in shard
// order. Memory is O(shards × windows + active tasks), independent of
// the workload length — this is the entry point for the 1,000-server
// ×10-volume multi-day replays.
func SimulateShardedWindowed(cfg Config, src workload.Source, tariff pricing.Tariff, width time.Duration) (*ShardedReplay, error) {
	run, err := runSharded(cfg, src, 0, tariff, width)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReplay{
		Servers:  cfg.Servers,
		Shards:   len(run.ranges),
		Dispatch: run.Dispatch(),
		PerShard: make([]obs.ShardUtil, len(run.ranges)),
	}
	for i, w := range run.fleet.workers {
		var shard Totals
		for _, m := range w.members {
			shard.Add(&m.Result)
			rep.Totals.Add(&m.Result)
		}
		rep.PerShard[i] = obs.ShardUtil{
			Shard: i, Servers: run.ranges[i][1] - run.ranges[i][0],
			Invocations: shard.Invocations, Events: shard.Events,
		}
	}
	rep.Faults.Accumulate(run.faults)
	// A fixed fleet has at least one shard, so the merge is never nil.
	if rep.Windowed, err = metrics.MergeTree(run.accs); err != nil {
		return nil, err
	}
	return rep, nil
}

// Simulate routes invs across the fleet and simulates every server on
// the lockstep engine. Each server writes its records straight into the
// slot of their ID (Record.ID is 1 + the invocation's index in invs) of
// one array of len(invs) records, which becomes Result.Set, so the result
// is bit-for-bit independent of the shard count. It holds every record in
// memory; use SimulateShardedWindowed for long horizons. It rejects a
// fleet of more than math.MaxInt32 servers, whose indices would not fit
// Result.Assignment.
func Simulate(cfg Config, invs []workload.Invocation) (*Result, error) {
	if len(invs) == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	run, err := runSharded(cfg, workload.SliceSource(invs), len(invs), pricing.Tariff{}, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dispatch:  run.Dispatch(),
		Servers:   cfg.Servers,
		PerServer: make([]ServerResult, cfg.Servers),
	}
	if res.Set.Records, res.Assignment, err = run.Records(); err != nil {
		return nil, err
	}
	// A server that got no work keeps an empty share under its index.
	for s := range res.PerServer {
		sr := &res.PerServer[s]
		sr.Server = s
		if m := run.members.get(s); m != nil {
			*sr = m.Result
		}
		res.Totals.Add(sr)
	}
	res.Faults.Accumulate(run.faults)
	return res, nil
}

// fixedRun is a finished fixed-fleet run.
type fixedRun struct {
	*Driver
	ranges [][2]int                       // each shard's contiguous server range
	accs   []*metrics.WindowedAccumulator // windowed mode's sinks, by shard
	faults faults.Stats                   // router-side crash and straggler windows
}

// runSharded is the fixed fleet behind Simulate and
// SimulateShardedWindowed: it resolves the contiguous shard ranges and
// runs src on the driver. With exact > 0, src yields exactly exact
// invocations, and the fleet keeps every record in fixed-length slots and
// the assignment in an array of the same length; otherwise each server
// records into its shard's windowed accumulator (width, billed at
// tariff). Under a fault plan every server runs a restartable fault
// machine, and the router's fault view is the controller. A server that
// receives nothing gets no policy, machine or lanes: it costs a few words
// of routing state (DESIGN.md §12).
func runSharded(cfg Config, src workload.Source, exact int, tariff pricing.Tariff, width time.Duration) (*fixedRun, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: Servers must be >= 1, got %d", cfg.Servers)
	}
	ranges, err := shardPlan(cfg.Servers, cfg.Shards)
	if err != nil {
		return nil, err
	}
	run := &fixedRun{ranges: ranges}
	l := Layout{Shards: len(ranges), Exact: exact, ShardOf: func(s int) int {
		return sort.Search(len(ranges), func(i int) bool { return ranges[i][1] > s })
	}}
	if exact == 0 {
		run.accs = make([]*metrics.WindowedAccumulator, len(ranges))
		for i := range run.accs {
			if run.accs[i], err = metrics.NewWindowedAccumulator(tariff, width); err != nil {
				return nil, err
			}
		}
		l.Sink = func(s int) metrics.Sink { return run.accs[l.ShardOf(s)] }
	}
	if cfg.Faults.Enabled() {
		l.Machine = func(s int) *faults.Machine { return faults.NewMachine(cfg.Faults, s) }
	}
	if run.Driver, err = NewDriver(cfg, l); err != nil {
		return nil, err
	}
	var ctl Controller
	rf := newRouteFaults(cfg.Faults, cfg.Servers, run.router.model, run.router.Pools(), cfg.Obs.Tracer())
	if rf != nil {
		run.router.faults, ctl = rf, rf
	}
	if err := run.Run(src, ctl); err != nil {
		return nil, err
	}
	if rf != nil {
		run.faults = rf.fleet.Stats()
		if reg := cfg.Obs.Registry(); reg != nil {
			reg.Counter(obs.CFaultCrashes).Add(run.faults.Crashes)
			reg.Counter(obs.CFaultStragglers).Add(run.faults.StragglerWindows)
		}
	}
	return run, nil
}
