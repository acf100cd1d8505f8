package cluster

import (
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

	if !w.IsCold(0, inv, 0) {
		t.Fatal("empty pool reported warm")
	}
	w.Book(0, inv, 0, 110*time.Millisecond, true)

	// Busy until the booked finish: a same-function arrival mid-run needs
	// its own (cold) instance.
	if !w.IsCold(0, inv, 50*time.Millisecond) {
		t.Error("busy instance reported as warm hit")
	}
	// Idle and inside the keep-alive: warm.
	if w.IsCold(0, inv, 500*time.Millisecond) {
		t.Error("idle instance inside TTL reported cold")
	}
	// A different function never matches.
	other := inv
	other.FuncID = 2
	if !w.IsCold(0, other, 500*time.Millisecond) {
		t.Error("warm hit across different functions")
	}
	// TTL eviction: idle since 110ms, expires at 1110ms.
	if !w.IsCold(0, inv, 1110*time.Millisecond) {
		t.Error("instance survived past its keep-alive")
	}
	if w.WarmCount(0, 2*time.Second) != 0 {
		t.Error("expired instance still tracked")
	}

	// DropServer destroys warm state.
	w.Book(0, inv, 2*time.Second, 2*time.Second+110*time.Millisecond, true)
	if w.IsCold(0, inv, 3*time.Second) {
		t.Fatal("instance not warm before drop")
	}
	w.DropServer(0)
	if !w.IsCold(0, inv, 3*time.Second) {
		t.Error("warm state survived DropServer")
	}

	// KeepAlive <= 0 means never expire.
	inf := NewWarmPools(ColdStartConfig{Latency: 100 * time.Millisecond}, 1)
	inf.Book(0, inv, 0, 110*time.Millisecond, true)
	if inf.IsCold(0, inv, 24*time.Hour) {
		t.Error("infinite-TTL instance expired")
	}
}

// TestWarmPoolsMemoryBound: registering past the budget evicts idle
// instances earliest-expiry-first; when everything else is busy the new
// instance runs but is not retained.
func TestWarmPoolsMemoryBound(t *testing.T) {
	cs := ColdStartConfig{Latency: 100 * time.Millisecond, KeepAlive: time.Minute, PoolMemMB: 256}
	w := NewWarmPools(cs, 1)
	mk := func(id int) workload.Invocation {
		return workload.Invocation{FibN: 30, Duration: 10 * time.Millisecond, MemMB: 128, FuncID: id}
	}
	// Two 128 MB instances fill the budget.
	w.Book(0, mk(1), 0, 10*time.Millisecond, true)
	w.Book(0, mk(2), 0, 20*time.Millisecond, true)
	if got := w.PoolMemMB(0, 0); got != 256 {
		t.Fatalf("pool memory = %d, want 256", got)
	}
	// A third function at t=30ms (both idle): the earliest-expiring idle
	// instance (function 1, expiring first) is evicted to make room.
	w.Book(0, mk(3), 30*time.Millisecond, 40*time.Millisecond, true)
	at := 50 * time.Millisecond
	if got := w.PoolMemMB(0, at); got != 256 {
		t.Errorf("pool memory after eviction = %d, want 256", got)
	}
	if !w.IsCold(0, mk(1), at) {
		t.Error("function 1 not evicted (earliest expiry)")
	}
	if w.IsCold(0, mk(2), at) || w.IsCold(0, mk(3), at) {
		t.Error("wrong instance evicted")
	}
	// Budget overflow with everything busy: the new instance runs but is
	// not retained once it frees.
	busy := NewWarmPools(ColdStartConfig{Latency: 100 * time.Millisecond, KeepAlive: time.Minute, PoolMemMB: 128}, 1)
	busy.Book(0, mk(1), 0, time.Second, true) // busy until 1s, holds whole budget
	busy.Book(0, mk(2), 0, time.Second, true) // cannot evict the busy one
	if busy.IsCold(0, mk(1), 500*time.Millisecond) == false {
		t.Error("busy instance counted as warm")
	}
	// After both free: the over-budget instance (function 2) was not
	// retained, the in-budget one idles on.
	if busy.IsCold(0, mk(1), 1100*time.Millisecond) {
		t.Error("retained instance lost")
	}
	if !busy.IsCold(0, mk(2), 1100*time.Millisecond) {
		t.Error("over-budget instance retained")
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

	res, err := Simulate(coldConfig(1, DispatchLeastLoaded, cs), workload.SliceSource(invs))
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
		res, err := Simulate(cfg, workload.SliceSource(invs))
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
	res, err := Simulate(base, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Set.ColdStarts(); got != 2 {
		t.Errorf("round-robin: %d cold starts, want 2 (one per server)", got)
	}

	warm := base
	warm.ColdStart.WarmFirst = true
	wres, err := Simulate(warm, workload.SliceSource(invs))
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
	plain, err := Simulate(testConfig(3, DispatchLeastLoaded), workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	disabled := coldConfig(3, DispatchLeastLoaded, ColdStartConfig{KeepAlive: time.Second, PoolMemMB: 64, WarmFirst: true})
	if disabled.ColdStart.Enabled() {
		t.Fatal("zero-latency config reports enabled")
	}
	dres, err := Simulate(disabled, workload.SliceSource(invs))
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
	res, err := Simulate(cfg, workload.SliceSource(invs))
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
