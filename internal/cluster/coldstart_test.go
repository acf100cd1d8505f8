package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/workload"
)

// coldConfig is a fleet config with the warm-instance model enabled.
func coldConfig(servers int, d Dispatch, cs ColdStartConfig) Config {
	cfg := testConfig(servers, d)
	cfg.ColdStart = cs
	return cfg
}

// oneFunc builds n invocations of a single function arriving every gap.
func oneFunc(n int, gap, dur time.Duration) []workload.Invocation {
	out := make([]workload.Invocation, n)
	for i := range out {
		out[i] = workload.Invocation{
			Arrival:  time.Duration(i) * gap,
			FibN:     30,
			Duration: dur,
			MemMB:    128,
			FuncID:   1,
		}
	}
	return out
}

// TestWarmPoolsLifecycle drives the pool state machine directly: cold on
// first sight, warm while idle inside the TTL, cold again once the
// keep-alive lapses, and DropServer destroys everything.
func TestWarmPoolsLifecycle(t *testing.T) {
	cs := ColdStartConfig{Latency: 100 * time.Millisecond, KeepAlive: time.Second}
	w := NewWarmPools(cs, 1)
	inv := workload.Invocation{FibN: 30, Duration: 10 * time.Millisecond, MemMB: 128, FuncID: 1}

	if w.HasWarm(0, inv, 0) {
		t.Fatal("empty pool reported warm")
	}
	mustBookCold(t, w, 0, inv, 0, 110*time.Millisecond)

	// Busy until the booked finish: a same-function arrival mid-run needs
	// its own (cold) instance.
	if w.HasWarm(0, inv, 50*time.Millisecond) {
		t.Error("busy instance reported as warm hit")
	}
	// Idle and inside the keep-alive: warm.
	if !w.HasWarm(0, inv, 500*time.Millisecond) {
		t.Error("idle instance inside TTL reported cold")
	}
	// A different function never matches.
	other := inv
	other.FuncID = 2
	if w.HasWarm(0, other, 500*time.Millisecond) {
		t.Error("warm hit across different functions")
	}
	// TTL eviction: idle since 110ms, expires at 1110ms.
	if w.HasWarm(0, inv, 1110*time.Millisecond) {
		t.Error("instance survived past its keep-alive")
	}
	if w.WarmCount(0, 2*time.Second) != 0 {
		t.Error("expired instance still tracked")
	}

	// DropServer destroys warm state.
	mustBookCold(t, w, 0, inv, 2*time.Second, 2*time.Second+110*time.Millisecond)
	if !w.HasWarm(0, inv, 3*time.Second) {
		t.Fatal("instance not warm before drop")
	}
	w.DropServer(0)
	if w.HasWarm(0, inv, 3*time.Second) {
		t.Error("warm state survived DropServer")
	}

	// KeepAlive <= 0 means never expire.
	inf := NewWarmPools(ColdStartConfig{Latency: 100 * time.Millisecond}, 1)
	mustBookCold(t, inf, 0, inv, 0, 110*time.Millisecond)
	if !inf.HasWarm(0, inv, 24*time.Hour) {
		t.Error("infinite-TTL instance expired")
	}
}

// TestWarmPoolsMemoryBound: registering past the budget evicts idle
// instances earliest-expiry-first; when everything else is busy the new
// instance runs but is not retained.
func TestWarmPoolsMemoryBound(t *testing.T) {
	cs := ColdStartConfig{Latency: 100 * time.Millisecond, KeepAlive: time.Minute, PoolMemMB: 256}
	w := NewWarmPools(cs, 1)
	mk := func(id int32) workload.Invocation {
		return workload.Invocation{FibN: 30, Duration: 10 * time.Millisecond, MemMB: 128, FuncID: id}
	}
	// Two 128 MB instances fill the budget.
	mustBookCold(t, w, 0, mk(1), 0, 10*time.Millisecond)
	mustBookCold(t, w, 0, mk(2), 0, 20*time.Millisecond)
	if got := w.PoolMemMB(0, 0); got != 256 {
		t.Fatalf("pool memory = %d, want 256", got)
	}
	// A third function at t=30ms (both idle): the earliest-expiring idle
	// instance (function 1, expiring first) is evicted to make room.
	mustBookCold(t, w, 0, mk(3), 30*time.Millisecond, 40*time.Millisecond)
	at := 50 * time.Millisecond
	if got := w.PoolMemMB(0, at); got != 256 {
		t.Errorf("pool memory after eviction = %d, want 256", got)
	}
	if w.HasWarm(0, mk(1), at) {
		t.Error("function 1 not evicted (earliest expiry)")
	}
	if !w.HasWarm(0, mk(2), at) || !w.HasWarm(0, mk(3), at) {
		t.Error("wrong instance evicted")
	}
	// Budget overflow with everything busy: the new instance runs but is
	// not retained once it frees.
	busy := NewWarmPools(ColdStartConfig{Latency: 100 * time.Millisecond, KeepAlive: time.Minute, PoolMemMB: 128}, 1)
	mustBookCold(t, busy, 0, mk(1), 0, time.Second) // busy until 1s, holds whole budget
	mustBookCold(t, busy, 0, mk(2), 0, time.Second) // cannot evict the busy one
	if busy.HasWarm(0, mk(1), 500*time.Millisecond) {
		t.Error("busy instance counted as warm")
	}
	// After both free: the over-budget instance (function 2) was not
	// retained, the in-budget one idles on.
	if !busy.HasWarm(0, mk(1), 1100*time.Millisecond) {
		t.Error("retained instance lost")
	}
	if busy.HasWarm(0, mk(2), 1100*time.Millisecond) {
		t.Error("over-budget instance retained")
	}
}

// TestKeepAliveSaturates: a keep-alive too long to add to an instance's
// finish saturates at "never expires" instead of wrapping negative and
// evicting the instance the moment it frees.
func TestKeepAliveSaturates(t *testing.T) {
	w := NewWarmPools(ColdStartConfig{Latency: time.Millisecond, KeepAlive: math.MaxInt64 - 10}, 1)
	inv := workload.Invocation{Duration: time.Millisecond, MemMB: 128, FuncID: 1}
	mustBookCold(t, w, 0, inv, 0, time.Second)
	if !w.HasWarm(0, inv, 2*time.Second) {
		t.Error("instance with a near-MaxInt64 keep-alive not warm after it freed")
	}
	if got := w.WarmCount(0, 2*time.Second); got != 1 {
		t.Errorf("WarmCount = %d, want 1", got)
	}
}

// TestBookRejectsStaleReuse: Book reuses only what Warm returned for the
// same server and instant. An instance of another function, on another
// server, still busy or already expired is an error, and the pools stay
// as they were.
func TestBookRejectsStaleReuse(t *testing.T) {
	w := NewWarmPools(ColdStartConfig{Latency: time.Millisecond, KeepAlive: time.Second}, 2)
	inv := workload.Invocation{Duration: time.Millisecond, MemMB: 128, FuncID: 1}
	other := inv
	other.FuncID = 2
	mustBookCold(t, w, 0, inv, 0, 10*time.Millisecond)
	mustBookCold(t, w, 1, inv, 0, 10*time.Millisecond)
	at := 20 * time.Millisecond
	reuse := w.Warm(0, inv, at)
	if reuse == nil {
		t.Fatal("no warm instance to reuse")
	}
	if err := w.Book(0, other, at, at+time.Millisecond, reuse); err == nil {
		t.Error("Book reused an instance of another function")
	}
	if err := w.Book(1, inv, at, at+time.Millisecond, reuse); err == nil {
		t.Error("Book reused an instance of another server")
	}
	for s := 0; s < 2; s++ {
		if got := w.WarmCount(s, at); got != 1 {
			t.Errorf("server %d tracks %d instances after rejected bookings, want 1", s, got)
		}
	}
	if err := w.Book(0, inv, at, 100*time.Millisecond, reuse); err != nil {
		t.Fatal(err)
	}
	if err := w.Book(0, inv, 50*time.Millisecond, 60*time.Millisecond, reuse); err == nil {
		t.Error("Book reused a busy instance")
	}
	if err := w.Book(0, inv, 2*time.Second, 2*time.Second+time.Millisecond, reuse); err == nil {
		t.Error("Book reused an expired instance")
	}
}

// TestWarmHitPaysNoLatency is the tentpole invariant end to end: with one
// function arriving slower than it runs, only the first invocation per
// server pays the cold start — and a warm hit's execution never includes
// the start latency.
func TestWarmHitPaysNoLatency(t *testing.T) {
	const latency = 50 * time.Millisecond
	cs := ColdStartConfig{Latency: latency, KeepAlive: time.Minute}
	invs := oneFunc(6, 500*time.Millisecond, 10*time.Millisecond)

	res, err := Simulate(coldConfig(1, DispatchLeastLoaded, cs), invs)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Set.ColdStarts(); n != 1 {
		t.Fatalf("%d cold starts, want 1", n)
	}
	recs := res.Set.Records
	if recs[0].ColdStart != latency {
		t.Errorf("first record ColdStart = %v, want %v", recs[0].ColdStart, latency)
	}
	for _, r := range recs[1:] {
		if r.ColdStart != 0 {
			t.Errorf("warm record %d carries ColdStart %v", r.ID, r.ColdStart)
		}
	}
	// The cold record's execution carries exactly the extra latency
	// relative to an identical warm hit (same demand, idle server).
	if d := recs[0].Execution() - recs[1].Execution(); d != latency {
		t.Errorf("cold-warm execution delta = %v, want %v", d, latency)
	}
}

// TestColdStartRateFallsWithTTL: the acceptance-criteria trend at unit
// scale. Arrivals 2 s apart: a 1 s keep-alive makes every invocation
// cold, a 1 min keep-alive only the first.
func TestColdStartRateFallsWithTTL(t *testing.T) {
	invs := oneFunc(8, 2*time.Second, 10*time.Millisecond)
	cold := func(ttl time.Duration) int {
		cfg := coldConfig(1, DispatchLeastLoaded, ColdStartConfig{Latency: 100 * time.Millisecond, KeepAlive: ttl})
		res, err := Simulate(cfg, invs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Set.ColdStarts()
	}
	if got := cold(time.Second); got != len(invs) {
		t.Errorf("1s TTL: %d cold starts, want %d", got, len(invs))
	}
	if got := cold(time.Minute); got != 1 {
		t.Errorf("1m TTL: %d cold starts, want 1", got)
	}
	if got := cold(0); got != 1 { // infinite
		t.Errorf("infinite TTL: %d cold starts, want 1", got)
	}
}

// TestWarmFirstDispatch: a repeat function chases its warm instance
// instead of following the inner policy. Round-robin would alternate the
// two servers (two cold starts); warm-first parks everything on the
// server that went cold first.
func TestWarmFirstDispatch(t *testing.T) {
	invs := oneFunc(6, 500*time.Millisecond, 10*time.Millisecond)
	base := coldConfig(2, DispatchRoundRobin, ColdStartConfig{Latency: 50 * time.Millisecond, KeepAlive: time.Minute})
	res, err := Simulate(base, invs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Set.ColdStarts(); got != 2 {
		t.Errorf("round-robin: %d cold starts, want 2 (one per server)", got)
	}

	warm := base
	warm.ColdStart.WarmFirst = true
	wres, err := Simulate(warm, invs)
	if err != nil {
		t.Fatal(err)
	}
	if got := wres.Set.ColdStarts(); got != 1 {
		t.Errorf("warm-first: %d cold starts, want 1", got)
	}
	for i, s := range wres.Assignment {
		if s != wres.Assignment[0] {
			t.Errorf("warm-first scattered: invocation %d on server %d", i, s)
			break
		}
	}
}

// TestColdStartDisabledIsInert: a config that sets every knob except the
// latency is Enabled()==false and must reproduce the no-model run bit
// for bit (the golden digests pin the same claim fleet-wide).
func TestColdStartDisabledIsInert(t *testing.T) {
	invs := synthWorkload(40, 5*time.Millisecond, 8*time.Millisecond)
	plain, err := Simulate(testConfig(3, DispatchLeastLoaded), invs)
	if err != nil {
		t.Fatal(err)
	}
	disabled := coldConfig(3, DispatchLeastLoaded, ColdStartConfig{KeepAlive: time.Second, PoolMemMB: 64, WarmFirst: true})
	if disabled.ColdStart.Enabled() {
		t.Fatal("zero-latency config reports enabled")
	}
	dres, err := Simulate(disabled, invs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Set.Records) != len(dres.Set.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(plain.Set.Records), len(dres.Set.Records))
	}
	for i := range plain.Set.Records {
		if plain.Set.Records[i] != dres.Set.Records[i] {
			t.Fatalf("record %d differs with disabled model: %+v vs %+v",
				i, plain.Set.Records[i], dres.Set.Records[i])
		}
	}
	for i := range plain.Assignment {
		if plain.Assignment[i] != dres.Assignment[i] {
			t.Fatalf("assignment %d differs with disabled model", i)
		}
	}
}

// TestColdStartBucketFallback: invocations without a FuncID share warmth
// per (FibN, MemMB) bucket — and never across buckets.
func TestColdStartBucketFallback(t *testing.T) {
	invs := []workload.Invocation{
		{Arrival: 0, FibN: 30, Duration: 10 * time.Millisecond, MemMB: 128},
		{Arrival: 500 * time.Millisecond, FibN: 30, Duration: 10 * time.Millisecond, MemMB: 128},
		{Arrival: time.Second, FibN: 30, Duration: 10 * time.Millisecond, MemMB: 256}, // other bucket
	}
	cfg := coldConfig(1, DispatchLeastLoaded, ColdStartConfig{Latency: 50 * time.Millisecond, KeepAlive: time.Minute})
	res, err := Simulate(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Set.ColdStarts(); got != 2 {
		t.Errorf("%d cold starts, want 2 (one per bucket)", got)
	}
	if res.Set.Records[1].ColdStart != 0 {
		t.Error("same-bucket repeat paid a cold start")
	}
}

// linearPools is the slice pool WarmPools' indexes replaced, kept as the
// reference their decisions must equal: each server's instances in
// registration order, and every lookup, prune and budget eviction a scan
// in that order. Ties therefore break by registration, first wins.
type linearPools struct {
	keepAlive time.Duration
	budgetMB  int
	servers   []linearPool
}

type linearPool struct {
	insts []linearInst
	memMB int
}

// linearInst is one tracked instance, in the shape poolState compares.
type linearInst struct {
	key      funcKey
	freeAt   time.Duration
	expireAt time.Duration
	memMB    int
}

func newLinearPools(cfg ColdStartConfig, servers int) *linearPools {
	return &linearPools{keepAlive: cfg.KeepAlive, budgetMB: cfg.PoolMemMB, servers: make([]linearPool, servers)}
}

func (l *linearPools) expireAt(freeAt time.Duration) time.Duration {
	if l.keepAlive <= 0 || freeAt > noExpiry-l.keepAlive {
		return noExpiry
	}
	return freeAt + l.keepAlive
}

func (l *linearPools) prune(s int, now time.Duration) *linearPool {
	p := &l.servers[s]
	kept := p.insts[:0]
	for _, in := range p.insts {
		if in.freeAt <= now && in.expireAt <= now {
			p.memMB -= in.memMB
			continue
		}
		kept = append(kept, in)
	}
	p.insts = kept
	return p
}

// warmIdx returns the idle instance of key to reuse: the largest freeAt,
// the earliest registration on ties; -1 when there is none.
func (p *linearPool) warmIdx(key funcKey, now time.Duration) int {
	best := -1
	for i, in := range p.insts {
		if in.key != key || in.freeAt > now || in.expireAt <= now {
			continue
		}
		if best < 0 || in.freeAt > p.insts[best].freeAt {
			best = i
		}
	}
	return best
}

func (l *linearPools) hasWarm(s int, inv workload.Invocation, now time.Duration) bool {
	return l.prune(s, now).warmIdx(keyOf(inv), now) >= 0
}

func (l *linearPools) book(s int, inv workload.Invocation, now, finish time.Duration) (cold bool) {
	p := l.prune(s, now)
	key := keyOf(inv)
	if i := p.warmIdx(key, now); i >= 0 {
		p.insts[i].freeAt = finish
		p.insts[i].expireAt = l.expireAt(finish)
		return false
	}
	in := linearInst{key: key, freeAt: finish, expireAt: l.expireAt(finish), memMB: int(inv.MemMB)}
	if l.budgetMB > 0 {
		for p.memMB+in.memMB > l.budgetMB {
			evict := -1
			for i, cand := range p.insts {
				if cand.freeAt > now {
					continue
				}
				if evict < 0 || cand.expireAt < p.insts[evict].expireAt {
					evict = i
				}
			}
			if evict < 0 {
				in.expireAt = in.freeAt
				break
			}
			p.memMB -= p.insts[evict].memMB
			p.insts = append(p.insts[:evict], p.insts[evict+1:]...)
		}
	}
	p.insts = append(p.insts, in)
	p.memMB += in.memMB
	return true
}

func (l *linearPools) count(s int, now time.Duration) int { return len(l.prune(s, now).insts) }
func (l *linearPools) mem(s int, now time.Duration) int   { return l.prune(s, now).memMB }
func (l *linearPools) drop(s int)                         { l.servers[s] = linearPool{} }
func (l *linearPools) add() int {
	l.servers = append(l.servers, linearPool{})
	return len(l.servers) - 1
}

// poolState is server s's tracked instances in registration order. It
// also checks the indexes agree: every function list in stamp order, each
// instance on its own key's list, and every heap slot recorded.
func poolState(t *testing.T, w *WarmPools, s int) []linearInst {
	t.Helper()
	p := w.pools.at(s)
	listed := 0
	for key, l := range p.byKey {
		if l.head == nil {
			t.Fatalf("server %d: empty list kept for %+v", s, key)
		}
		for in := l.head; in != nil; in = in.next {
			if in.key != key || (in.next != nil && in.next.stamp <= in.stamp) || (in.next == nil && in != l.tail) {
				t.Fatalf("server %d: function list for %+v out of registration order", s, key)
			}
			listed++
		}
	}
	if listed != len(p.expiry) {
		t.Fatalf("server %d: %d listed instances, %d in the expiry heap", s, listed, len(p.expiry))
	}
	insts := slices.Clone(p.expiry)
	for i, in := range insts {
		if int(in.slot) != i || (i > 0 && expiresBefore(in, insts[(i-1)/2])) {
			t.Fatalf("server %d: expiry heap broken at slot %d", s, i)
		}
	}
	slices.SortFunc(insts, func(a, b *WarmInstance) int { return cmp.Compare(a.stamp, b.stamp) })
	var out []linearInst
	for _, in := range insts {
		out = append(out, linearInst{key: in.key, freeAt: in.freeAt, expireAt: in.expireAt, memMB: int(in.memMB)})
	}
	return out
}

// bookIndexed runs the routing step's warm lookup and booking on w,
// reporting whether the booking was a cold start.
func bookIndexed(t *testing.T, w *WarmPools, s int, inv workload.Invocation, now, finish time.Duration) bool {
	t.Helper()
	reuse := w.Warm(s, inv, now)
	if err := w.Book(s, inv, now, finish, reuse); err != nil {
		t.Fatal(err)
	}
	return reuse == nil
}

// mustBookCold books inv on server s as a cold start.
func mustBookCold(t *testing.T, w *WarmPools, s int, inv workload.Invocation, now, finish time.Duration) {
	t.Helper()
	if err := w.Book(s, inv, now, finish, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPoolsMatchLinear drives WarmPools and the linear reference
// through the same randomized operation sequences — bookings, probes,
// server teardown and growth — and requires the same answer from every
// HasWarm, booking outcome, WarmCount and PoolMemMB, and the same
// instances in the same registration order after every step. Times and
// durations sit on a 5 ms grid and the keep-alives are multiples of it,
// so equal freeAt and equal expireAt ties are common; the configurations
// cover budget eviction, budgets that only busy instances fill
// (run-don't-retain) and KeepAlive <= 0. Under WarmFirst the warm index's
// pick must also equal the linear least-loaded HasWarm scan.
func TestWarmPoolsMatchLinear(t *testing.T) {
	const latency = 5 * time.Millisecond
	configs := []ColdStartConfig{
		{KeepAlive: 50 * time.Millisecond},
		{KeepAlive: 50 * time.Millisecond, PoolMemMB: 512},
		{KeepAlive: 25 * time.Millisecond, PoolMemMB: 256},
		{PoolMemMB: 384},
		{KeepAlive: -time.Second},
	}
	for ci, cfg := range configs {
		for _, warmFirst := range []bool{false, true} {
			cfg := cfg
			cfg.Latency, cfg.WarmFirst = latency, warmFirst
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("cfg%d/warm-first=%v/seed%d", ci, warmFirst, seed)
				t.Run(name, func(t *testing.T) { runPoolDifferential(t, cfg, seed) })
			}
		}
	}
}

func runPoolDifferential(t *testing.T, cfg ColdStartConfig, seed int64) {
	const cores, maxServers = 2, 6
	rng := rand.New(rand.NewSource(seed))
	servers := 3
	w := NewWarmPools(cfg, servers)
	ref := newLinearPools(cfg, servers)
	model := NewFleetModel(servers, cores)
	randInv := func(now time.Duration) workload.Invocation {
		inv := workload.Invocation{
			Arrival:  now,
			Duration: time.Duration(rng.Intn(9)) * 5 * time.Millisecond,
			MemMB:    int32(128 * (1 + rng.Intn(2))),
			FibN:     int32(20 + 10*rng.Intn(2)),
		}
		if rng.Intn(3) > 0 {
			inv.FuncID = int32(1 + rng.Intn(4)) // MemMB varies within one function
		}
		return inv
	}
	now := time.Duration(0)
	for step := 0; step < 3000; step++ {
		now += time.Duration(rng.Intn(3)) * 5 * time.Millisecond
		switch op := rng.Intn(40); {
		case op == 0:
			s := rng.Intn(servers)
			w.DropServer(s)
			ref.drop(s)
		case op == 1 && servers < maxServers:
			s, rs := w.AddServer(), ref.add()
			if s != rs || s != servers {
				t.Fatalf("step %d: AddServer = %d, reference %d, want %d", step, s, rs, servers)
			}
			model.AddServer(now)
			model.SetEligible(s, true, now)
			servers++
		case op < 8:
			s, inv := rng.Intn(servers), randInv(now)
			if got, want := w.HasWarm(s, inv, now), ref.hasWarm(s, inv, now); got != want {
				t.Fatalf("step %d: HasWarm(%d, %+v) = %v, reference %v", step, s, keyOf(inv), got, want)
			}
		default:
			s, inv := rng.Intn(servers), randInv(now)
			demand := inv.Duration
			if !ref.hasWarm(s, inv, now) {
				demand += cfg.Latency
			}
			finish := model.AssignDemand(s, now, demand)
			if got, want := bookIndexed(t, w, s, inv, now, finish), ref.book(s, inv, now, finish); got != want {
				t.Fatalf("step %d: booking on %d cold=%v, reference cold=%v", step, s, got, want)
			}
		}
		for s := 0; s < servers; s++ {
			if got, want := w.WarmCount(s, now), ref.count(s, now); got != want {
				t.Fatalf("step %d: WarmCount(%d) = %d, reference %d", step, s, got, want)
			}
			if got, want := w.PoolMemMB(s, now), ref.mem(s, now); got != want {
				t.Fatalf("step %d: PoolMemMB(%d) = %d, reference %d", step, s, got, want)
			}
			if got, want := poolState(t, w, s), ref.servers[s].insts; !slices.Equal(got, want) {
				t.Fatalf("step %d: server %d instances\n%+v\nreference\n%+v", step, s, got, want)
			}
		}
		if w.widx != nil {
			inv := randInv(now)
			ix := model.index(now)
			if !ix.usable(servers, now) {
				t.Fatalf("step %d: load index unusable over the whole fleet", step)
			}
			w.sync(now)
			got, ok := w.widx.best(keyOf(inv), ix)
			if !ok {
				got = -1
			}
			want, wantLoad := -1, time.Duration(0)
			for s := 0; s < servers; s++ {
				if !ref.hasWarm(s, inv, now) {
					continue
				}
				if load := model.Outstanding(s, now); want < 0 || load < wantLoad {
					want, wantLoad = s, load
				}
			}
			if got != want {
				t.Fatalf("step %d: warm index best(%+v) = %d, linear scan %d", step, keyOf(inv), got, want)
			}
		}
	}
}
