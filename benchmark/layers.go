package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/faassched/faassched"
	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// layer is one segment of wall time a traced pass attributes.
type layer int

const (
	layerSource  layer = iota // workload.Source producing the next invocation
	layerHandoff              // engine pass: the consumer's yield (route + hand to servers)
	layerPick                 // Dispatcher.Pick
	layerBook                 // FleetModel.AssignDemand
	layerAdmit                // task build and admission into the server's kernel
	layerRun                  // kernel event loop: RunTo/Drain/ExecStats, sink time excluded
	layerPush                 // completion sink: Push (sharded) or Collect (flat)
	layerMerge                // cross-shard or cross-server merge
	numLayers
)

var layerNames = [numLayers]string{"source", "handoff", "pick", "book", "admit", "run", "push", "merge"}

// clock attributes wall time to layers by laps: each lap charges the time
// since the previous lap to one layer, so consecutive laps tile the pass
// and only the glue between them stays unattributed. A disabled clock
// reads no time at all, which is how the same pass runs untraced.
type clock struct {
	on    bool
	start time.Time
	last  time.Duration
	spent [numLayers]time.Duration
}

func newClock(on bool) *clock { return &clock{on: on, start: time.Now()} }

func (c *clock) now() time.Duration { return time.Since(c.start) }

// lap charges the time since the previous lap to l.
func (c *clock) lap(l layer) {
	if !c.on {
		return
	}
	t := c.now()
	c.spent[l] += t - c.last
	c.last = t
}

// within runs f inside a segment that will be charged to outer, and moves
// f's own time from outer to l.
func (c *clock) within(l, outer layer, f func()) {
	if !c.on {
		f()
		return
	}
	start := c.now()
	f()
	d := c.now() - start
	c.spent[l] += d
	c.spent[outer] -= d
}

// timedSink charges Push calls to layerPush. Pushes happen inside the
// kernel event loop, so their time is moved out of layerRun.
type timedSink struct {
	c     *clock
	inner metrics.Sink
}

func (s timedSink) Push(r metrics.Record) {
	s.c.within(layerPush, layerRun, func() { s.inner.Push(r) })
}

// sink wraps inner for timing when the clock is on.
func (c *clock) sink(inner metrics.Sink) metrics.Sink {
	if !c.on {
		return inner
	}
	return timedSink{c: c, inner: inner}
}

// timedSource splits an engine pass's time at the Source boundary: time
// inside src between invocations is layerSource, time inside the engine's
// yield is layerHandoff. The engine itself is untouched.
func timedSource(src workload.Source, c *clock) workload.Source {
	return func(yield func(workload.Invocation) bool) {
		c.lap(layerHandoff)
		src(func(inv workload.Invocation) bool {
			c.lap(layerSource)
			ok := yield(inv)
			c.lap(layerHandoff)
			return ok
		})
		c.lap(layerSource)
	}
}

// timedEngine is the engine pass: the untouched engine behind timedSource.
// The elastic workload goes one layer below the facade (autoscaleDirect)
// for its kernel counters.
func (w spec) timedEngine(in *input, seed int64, c *clock) (func() (outcome, error), error) {
	src := timedSource(in.src, c)
	switch w.exec {
	case execSharded:
		st, err := faassched.SimulateShardedReplay(w.clusterOptions(seed), faassched.Source(src))
		if err != nil {
			return nil, err
		}
		return func() (outcome, error) { return shardedOutcome(st, w.servers) }, nil
	case execElastic:
		return w.autoscaleDirect(src, seed)
	default:
		return nil, fmt.Errorf("%s: the %s executor takes a slice, so it has no engine pass", w.name, w.exec)
	}
}

// replayCounts are the structural counts the sharded replay observes; the
// flat replay has no watermarks or incremental machines.
type replayCounts struct {
	Watermarks  int `json:"watermarks"`
	RunTo       int `json:"runto_calls"`
	IdleRunTo   int `json:"idle_runto_calls"` // RunTo calls that scheduled no kernel event
	LiveServers int `json:"live_servers"`
	Shards      int `json:"shards"`
}

// replay re-executes the workload's engine on one goroutine through each
// layer's exported calls, lapping c around every call. It copies the
// engine's routing loop (cluster.Simulate phase 1 or the sharded router),
// so its totals must equal the engine run's bit for bit; the digest check
// is what keeps the copy honest. It covers fleets without cold starts or
// faults, which the copied loop omits.
func (w spec) replay(in *input, seed int64, c *clock) (func() (outcome, error), replayCounts, error) {
	if w.warm || w.crashes > 0 {
		return nil, replayCounts{}, fmt.Errorf("%s: the replay pass does not model cold starts or faults", w.name)
	}
	switch w.exec {
	case execSharded:
		return w.replaySharded(in.src, seed, c)
	case execFlat:
		return w.replayFlat(in.invs, seed, c)
	default:
		return nil, replayCounts{}, fmt.Errorf("%s: the %s executor has no replay pass", w.name, w.exec)
	}
}

// router is the fixed fleet's routing state: the causal load model and the
// dispatcher over every server.
type router struct {
	model      *cluster.FleetModel
	disp       cluster.Dispatcher
	candidates []int
}

func (w spec) newRouter(seed int64) (*router, error) {
	model := cluster.NewFleetModel(w.servers, coresPerServer)
	disp, err := cluster.NewDispatcher(w.dispatch, seed, model)
	if err != nil {
		return nil, err
	}
	candidates := make([]int, w.servers)
	for s := range candidates {
		candidates[s] = s
	}
	return &router{model: model, disp: disp, candidates: candidates}, nil
}

// route picks and books one invocation.
func (r *router) route(inv workload.Invocation, c *clock) int {
	s := r.disp.Pick(inv, r.candidates)
	c.lap(layerPick)
	r.model.AssignDemand(s, inv.Arrival, inv.Duration)
	c.lap(layerBook)
	return s
}

// shardRanges splits n servers into at most shards contiguous ranges the
// way the sharded engine does (cluster.shardRanges): the per-shard sinks
// and their merge order depend on this partition.
func shardRanges(n, shards int) [][2]int {
	shards = max(min(shards, n), 1)
	ranges := make([][2]int, 0, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + (n-lo)/(shards-i)
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// replaySharded mirrors SimulateShardedWindowed with Shards and Workers at
// their defaults: the router emits watermark T once an arrival passes T,
// each server admits its arrivals and runs to every watermark in server
// order, each shard folds completions into its own windowed sink, and the
// shard sinks merge pairwise in shard order.
func (w spec) replaySharded(src workload.Source, seed int64, c *clock) (func() (outcome, error), replayCounts, error) {
	var cnt replayCounts
	rt, err := w.newRouter(seed)
	if err != nil {
		return nil, cnt, err
	}
	c.lap(layerBook)
	policies := make([]ghost.Policy, w.servers)
	for s := range policies {
		policies[s] = w.newPolicy()
	}
	shards := shardRanges(w.servers, 4*runtime.GOMAXPROCS(0))
	cnt.Shards = len(shards)
	accs := make([]*metrics.WindowedAccumulator, len(shards))
	sinks := make([]metrics.Sink, w.servers)
	for i, rg := range shards {
		if accs[i], err = metrics.NewWindowedAccumulator(pricing.Default(), metricsWindow); err != nil {
			return nil, cnt, err
		}
		for s := rg[0]; s < rg[1]; s++ {
			sinks[s] = c.sink(accs[i])
		}
	}
	kcfg := simkern.DefaultConfig(coresPerServer)
	machines := make([]*simrun.Incremental, w.servers)
	runTo := func(mark time.Duration) error {
		for _, m := range machines {
			if m == nil {
				continue
			}
			before := m.Events()
			if err := m.RunTo(mark); err != nil {
				return err
			}
			cnt.RunTo++
			if m.Events() == before {
				cnt.IdleRunTo++
			}
		}
		return nil
	}

	idx, nextMark := 0, simrun.DefaultWindow
	c.lap(layerAdmit)
	src(func(inv workload.Invocation) bool {
		c.lap(layerSource)
		for inv.Arrival > nextMark {
			if err = runTo(nextMark); err != nil {
				return false
			}
			cnt.Watermarks++
			nextMark += simrun.DefaultWindow
		}
		c.lap(layerRun)
		s := rt.route(inv, c)
		m := machines[s]
		if m == nil {
			if m, err = simrun.NewIncremental(kcfg, policies[s], ghost.Config{}, sinks[s]); err != nil {
				return false
			}
			machines[s] = m
			cnt.LiveServers++
		}
		err = m.Admit(m.Pool().Get(inv, simkern.TaskID(idx+1)))
		idx++
		c.lap(layerAdmit)
		return err == nil
	})
	c.lap(layerSource)
	if err != nil {
		return nil, cnt, err
	}
	t := fleetTotals{routed: idx, hasKernel: true}
	for _, m := range machines {
		if m == nil {
			continue
		}
		if err := m.Drain(); err != nil {
			return nil, cnt, err
		}
		t.makespan = max(t.makespan, m.Makespan())
		t.ghost.Accumulate(m.Stats())
		t.events += m.Events()
	}
	c.lap(layerRun)
	merged, err := metrics.MergeTree(accs)
	c.lap(layerMerge)
	if err != nil {
		return nil, cnt, err
	}
	t.acc = merged.Total()
	t.serverHours = float64(w.servers) * t.makespan.Hours()
	return t.reduce, cnt, nil
}

// replayFlat mirrors cluster.Simulate without streaming: route every
// invocation first, then run each server's share through ExecStats and
// Collect, then merge the records by invocation id.
func (w spec) replayFlat(invs []workload.Invocation, seed int64, c *clock) (func() (outcome, error), replayCounts, error) {
	var cnt replayCounts
	rt, err := w.newRouter(seed)
	if err != nil {
		return nil, cnt, err
	}
	c.lap(layerBook)
	shares := make([][]int, w.servers)
	for i, inv := range invs {
		c.lap(layerSource)
		s := rt.route(inv, c)
		shares[s] = append(shares[s], i)
		c.lap(layerAdmit)
	}
	policies := make([]ghost.Policy, w.servers)
	for s := range policies {
		policies[s] = w.newPolicy()
	}
	c.lap(layerAdmit)

	kcfg := simkern.DefaultConfig(coresPerServer)
	t := fleetTotals{routed: len(invs), hasKernel: true}
	var records []metrics.Record
	for s, share := range shares {
		if len(share) == 0 {
			continue
		}
		tasks := make([]*simkern.Task, 0, len(share))
		for _, i := range share {
			tasks = append(tasks, workload.Task(invs[i], simkern.TaskID(i+1)))
		}
		c.lap(layerAdmit)
		add := simrun.AddTasks(tasks)
		var gs ghost.Stats
		k, err := simrun.ExecStats(kcfg, policies[s], ghost.Config{}, func(k *simkern.Kernel) (err error) {
			c.within(layerAdmit, layerRun, func() { err = add(k) })
			return err
		}, &gs)
		if err != nil {
			return nil, cnt, fmt.Errorf("server %d: %w", s, err)
		}
		c.lap(layerRun)
		set := metrics.Collect(k)
		records = append(records, set.Records...)
		c.lap(layerPush)
		t.makespan = max(t.makespan, k.Makespan())
		t.ghost.Accumulate(gs)
		t.events += k.EventSeq()
	}
	sort.Slice(records, func(i, j int) bool { return records[i].ID < records[j].ID })
	c.lap(layerMerge)
	return func() (outcome, error) {
		acc := metrics.NewAccumulator(pricing.Default())
		for _, r := range records {
			acc.Push(r)
		}
		t.acc = acc
		t.serverHours = float64(w.servers) * t.makespan.Hours()
		return t.reduce()
	}, cnt, nil
}
