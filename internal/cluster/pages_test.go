package cluster

import (
	"runtime"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/workload"
)

// TestPagesAllocateOnWrite pins the page contract: reads of a server on
// an unallocated page see the zero value and allocate nothing, and a
// write allocates only that server's page.
func TestPagesAllocateOnWrite(t *testing.T) {
	p := newPages[int](10 * pageLen)
	if got := p.get(3*pageLen + 5); got != 0 || p.peek(3*pageLen+5) != nil {
		t.Fatalf("unwritten server reads %d", got)
	}
	*p.at(3*pageLen + 5) = 7
	if got := p.get(3*pageLen + 5); got != 7 {
		t.Fatalf("written server reads %d", got)
	}
	for i, pg := range p.dir {
		if (pg != nil) != (i == 3) {
			t.Errorf("page %d allocated: %v", i, pg != nil)
		}
	}
	p.grow(10*pageLen + 1)
	if len(p.dir) != 11 || p.get(10*pageLen) != 0 {
		t.Fatalf("grow: %d pages", len(p.dir))
	}
}

// TestUntouchedServersCostNothing routes one small stream on 10,000 and
// on 100,000 servers and requires the two runs to allocate within a
// small constant of each other: least-loaded dispatch packs the stream
// onto the same few dozen servers either way, so only per-server state
// built for servers that get no work could tell the fleets apart. What
// is left is the page directories and the load index's bitsets, under
// 2 bytes a server; with per-server arrays the runs differed by ~50 B a
// server (~4.8 MB).
func TestUntouchedServersCostNothing(t *testing.T) {
	invs := synthWorkload(2000, time.Millisecond, 20*time.Millisecond)
	const limit = 256 << 10
	for _, tc := range []struct {
		name string
		cs   ColdStartConfig
	}{
		{"plain", ColdStartConfig{}},
		{"coldstart", ColdStartConfig{Latency: 50 * time.Millisecond, KeepAlive: time.Minute}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alloc := func(servers int) int64 {
				cfg := testConfig(servers, DispatchLeastLoaded)
				cfg.Shards = 4
				cfg.ColdStart = tc.cs
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rep, err := SimulateShardedWindowed(cfg, workload.SliceSource(invs), pricing.Tariff{}, time.Minute)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Invocations != len(invs) {
					t.Fatalf("%d servers routed %d of %d invocations", servers, rep.Invocations, len(invs))
				}
				return int64(after.TotalAlloc - before.TotalAlloc)
			}
			alloc(10_000) // one-time allocations land outside the comparison
			small, large := alloc(10_000), alloc(100_000)
			if d := large - small; d < -limit || d > limit {
				t.Errorf("100,000 servers allocated %d B, 10,000 allocated %d B: %+d B apart (limit ±%d)", large, small, d, limit)
			}
			t.Logf("10,000 servers %d B, 100,000 servers %d B", small, large)
		})
	}
}
