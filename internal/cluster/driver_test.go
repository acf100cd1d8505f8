package cluster

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/workload"
)

// retiringController grows a fleet of three servers at the first arrival,
// joining each before it receives anything, and retires server 0 at
// arrival retireAt: the elastic fleet's use of the driver in miniature.
type retiringController struct {
	d          *Driver
	candidates []int
	members    []*Member
	retireAt   time.Duration
	seen       []int // the server After saw for each arrival, in order
	late       int   // arrivals After saw booked to finish before they arrived
}

func (c *retiringController) Before(t time.Duration) ([]int, int, error) {
	if c.members == nil {
		for s := range 3 {
			c.d.Model().AddServer(0)
			c.d.Model().SetEligible(s, true, t)
			m, err := c.d.Join(s)
			if err != nil {
				return nil, 0, err
			}
			c.members = append(c.members, m)
			c.candidates = append(c.candidates, s)
		}
	}
	if t >= c.retireAt && c.candidates[0] == 0 {
		c.d.Model().SetEligible(0, false, t)
		c.candidates = c.candidates[1:]
		c.d.Retire(c.members[0])
	}
	return c.candidates, -1, nil
}

func (c *retiringController) After(s int, r Routed, finish time.Duration) {
	if finish < r.Inv.Arrival {
		c.late++
	}
	c.seen = append(c.seen, s)
}

// TestDriverControllerJoinsAndRetires: a controller that joins servers
// ahead of their first arrival and retires one mid-run gets every routing
// decision once, in order, and the run keeps one exact record per
// arrival (block slots of 3 IDs, the count unknown), routes nothing to
// the retired server after its retire, and conserves every server's
// count.
func TestDriverControllerJoinsAndRetires(t *testing.T) {
	invs := synthWorkload(60, time.Millisecond, 3*time.Millisecond)
	cfg := testConfig(0, DispatchLeastLoaded)
	d, err := NewDriver(cfg, Layout{Shards: 2, ShardOf: func(s int) int { return s % 2 }, Block: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &retiringController{d: d, retireAt: invs[30].Arrival}
	if err := d.Run(workload.SliceSource(invs), ctl); err != nil {
		t.Fatal(err)
	}
	recs, assign, err := d.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(invs) || !slices.Equal(assign, toInt32(ctl.seen)) {
		t.Fatalf("%d records, assignment %v; After saw %v", len(recs), assign, ctl.seen)
	}
	if ctl.late > 0 {
		t.Errorf("%d decisions booked to finish before their arrival", ctl.late)
	}
	routed := 0
	for k, rec := range recs {
		if int(rec.ID) != k+1 {
			t.Fatalf("slot %d holds record ID %d", k, rec.ID)
		}
		if k >= 30 && assign[k] == 0 {
			t.Errorf("invocation %d routed to server 0 after its retire", k)
		}
	}
	for _, m := range ctl.members {
		r := m.Result
		if r.Server != m.Index || r.Invocations == 0 || r.Completed+r.Failed != r.Invocations {
			t.Errorf("server %d: share of server %d, routed %d, completed %d, failed %d", m.Index, r.Server, r.Invocations, r.Completed, r.Failed)
		}
		routed += r.Invocations
	}
	if routed != len(invs) || d.fleet.routed != len(invs) {
		t.Errorf("servers routed %d, driver %d, of %d arrivals", routed, d.fleet.routed, len(invs))
	}
}

func toInt32(s []int) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

// TestDriverBlockRecordsMatchExact: a fixed fleet that keeps its records
// in small ID blocks, not knowing the count, ends with the records and
// the assignment of the run that knew it.
func TestDriverBlockRecordsMatchExact(t *testing.T) {
	invs := synthWorkload(200, 300*time.Microsecond, 2*time.Millisecond)
	want, err := Simulate(testConfig(3, DispatchLeastLoaded), invs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(testConfig(3, DispatchLeastLoaded), Layout{Shards: 2, ShardOf: func(s int) int { return s / 2 }, Block: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(workload.SliceSource(invs), nil); err != nil {
		t.Fatal(err)
	}
	recs, assign, err := d.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(assign, want.Assignment) || !slices.Equal(recs, want.Set.Records) {
		t.Error("block-slot run differs from the exact-length run")
	}
}

// TestDriverRejectsBadSources: a source that yields more invocations
// than the run was sized for, and a nil source, fail the run, and the
// engine's shards are closed either way.
func TestDriverRejectsBadSources(t *testing.T) {
	invs := synthWorkload(5, time.Millisecond, time.Millisecond)
	shardOf := func(s int) int { return s % 2 }
	d, err := NewDriver(testConfig(2, DispatchRoundRobin), Layout{Shards: 2, ShardOf: shardOf, Exact: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(workload.SliceSource(invs), nil); err == nil || !strings.Contains(err.Error(), "yielded more than 4 invocations") {
		t.Errorf("surplus invocation: err = %v", err)
	}
	if d, err = NewDriver(testConfig(2, DispatchRoundRobin), Layout{Shards: 2, ShardOf: shardOf}); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(nil, nil); err == nil || !strings.Contains(err.Error(), "nil workload source") {
		t.Errorf("nil source: err = %v", err)
	}
}
