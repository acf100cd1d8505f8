package obs

import (
	"reflect"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
)

func TestRegistryFindOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(3)
	c.Inc()
	if got := r.Counter("a.b").Value(); got != 4 {
		t.Fatalf("counter a.b = %d, want 4", got)
	}
	g := r.Gauge("a.g")
	g.Add(1.5)
	if got := r.Gauge("a.g").Value(); got != 1.5 {
		t.Fatalf("gauge a.g = %v, want 1.5", got)
	}
}

func TestRegistryCrossKindPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestAddGhostStats(t *testing.T) {
	r := NewRegistry()
	r.AddGhostStats(ghost.Stats{Delivered: 1, Commits: 2, Failed: 3, Ticks: 4, TicksElided: 5, Migrations: 6})
	r.AddGhostStats(ghost.Stats{Delivered: 10, Ticks: 10})
	want := map[string]int64{
		CGhostDelivered: 11, CGhostCommits: 2, CGhostFailed: 3,
		CGhostTicks: 14, CGhostElided: 5, CGhostMigrations: 6,
	}
	for name, v := range want {
		if got := r.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

func TestDumpAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("c").Add(3.5)
	if got := r.Dump(); !reflect.DeepEqual(got, map[string]float64{"a": 1, "b": 2, "c": 3.5}) {
		t.Errorf("Dump = %v", got)
	}
	snap := r.Snapshot()
	want := []Metric{{"a", 1}, {"b", 2}, {"c", 3.5}}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("Snapshot = %v, want %v", snap, want)
	}
	var nilReg *Registry
	if nilReg.Dump() != nil || nilReg.Snapshot() != nil {
		t.Error("nil registry Dump/Snapshot should be nil")
	}
}

func TestProgressLive(t *testing.T) {
	var p Progress
	p.Routed.Add(10)
	p.Done.Add(4)
	if got := p.Live(); got != 6 {
		t.Fatalf("Live = %d, want 6", got)
	}
	if got := (*Progress)(nil).Live(); got != 0 {
		t.Fatalf("nil Live = %d, want 0", got)
	}
}

func TestRunReportFinalize(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(CKernEvents).Add(500)
	rep := &RunReport{
		Tool: "test", Mode: "flat", Events: 500,
		PerShard: []ShardUtil{{Shard: 0, Events: 100}, {Shard: 1, Events: 400}},
	}
	rep.Finalize(reg, 2*time.Second)
	if rep.EventsPerSec != 250 {
		t.Errorf("EventsPerSec = %v, want 250", rep.EventsPerSec)
	}
	if rep.PeakRSSMB <= 0 {
		t.Errorf("PeakRSSMB = %v, want > 0", rep.PeakRSSMB)
	}
	if rep.Counters[CKernEvents] != 500 {
		t.Errorf("counter dump missing %s: %v", CKernEvents, rep.Counters)
	}
	if rep.PerShard[1].EventShare != 0.8 {
		t.Errorf("shard 1 EventShare = %v, want 0.8", rep.PerShard[1].EventShare)
	}
	// Counters key must exist even with counting disabled.
	rep2 := &RunReport{}
	rep2.Finalize(nil, time.Second)
	if rep2.Counters == nil {
		t.Error("Finalize(nil) left Counters nil")
	}
}
