package cluster

import (
	"math"
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

// batchBytes measures what allocating one router-to-shard handoff batch
// costs, size-class rounding included.
func batchBytes() int64 {
	const n = 64
	keep := make([][]shardMsg, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = make([]shardMsg, 0, shardBatch)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestUntouchedServersCostNothing routes one small stream on 10,000 and
// on 100,000 servers and requires the two runs to allocate within a
// small constant of each other: least-loaded dispatch packs the stream
// onto the same few dozen servers either way, so only per-server state
// built for servers that get no work could tell the fleets apart. What
// is left is the page directories and the load index's bitsets, under
// 2 bytes a server; with per-server arrays the runs differed by ~50 B a
// server (~4.8 MB), and 8 B more for each server that gets no work puts
// them ~720 KB apart.
//
// The bytes of the router-to-shard handoff batches are left out: the
// pool makes them on demand while shards lag (batchPool.get), so their
// number follows goroutine interleaving (5 to 32 batches of ~6.8 KB
// for the same stream under CPU contention), not fleet size. Each fleet
// size then counts the fewest bytes of five runs, as scheduling noise
// only adds bytes.
func TestUntouchedServersCostNothing(t *testing.T) {
	invs := synthWorkload(2000, time.Millisecond, 20*time.Millisecond)
	const limit = 256 << 10
	perBatch := batchBytes()
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
				run, err := runSharded(cfg, workload.SliceSource(invs), 0, pricing.Tariff{}, time.Minute)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if run.fleet.routed != len(invs) {
					t.Fatalf("%d servers routed %d of %d invocations", servers, run.fleet.routed, len(invs))
				}
				return int64(after.TotalAlloc-before.TotalAlloc) - int64(run.fleet.pool.made)*perBatch
			}
			alloc(10_000) // one-time allocations land outside the comparison
			small, large := int64(math.MaxInt64), int64(math.MaxInt64)
			for range 5 {
				small = min(small, alloc(10_000))
				large = min(large, alloc(100_000))
			}
			if d := large - small; d < -limit || d > limit {
				t.Errorf("100,000 servers allocated %d B, 10,000 allocated %d B: %+d B apart (limit ±%d)", large, small, d, limit)
			}
			t.Logf("10,000 servers %d B, 100,000 servers %d B, handoff batches (%d B each) left out", small, large, perBatch)
		})
	}
}
