// Router-side fault handling for the fixed fleet, its controller on the
// driver's routing loop (driver.go): the fault plan's crash transitions
// gate dispatch eligibility (a down server takes no new work and loses
// its warm pool), straggler windows surcharge routed demand, and when the
// whole fleet is down work queues on the soonest-recovering server.
// Everything here runs on the single routing thread.

package cluster

import (
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/obs"
)

// routeFaults is the routing loops' fault-plan adapter: it advances the
// fleet timeline to each arrival, keeps the candidate slice equal to the
// model's eligible set (the invariant the indexed dispatch fast path
// needs), and answers the per-arrival questions (fallback target,
// straggler surcharge).
type routeFaults struct {
	fleet      *faults.Fleet
	model      *FleetModel
	pools      *WarmPools
	tracer     *obs.Tracer
	candidates []int
	dirty      bool
	now        time.Duration
	onDownFn   func(int)
	onUpFn     func(int)
}

// newRouteFaults builds the adapter, or returns nil when the plan is
// disabled (callers branch on nil and keep the exact pre-fault code
// path).
func newRouteFaults(cfg faults.Config, servers int, model *FleetModel, pools *WarmPools, tracer *obs.Tracer) *routeFaults {
	if !cfg.Enabled() {
		return nil
	}
	rf := &routeFaults{
		fleet:      faults.NewFleet(cfg, servers),
		model:      model,
		pools:      pools,
		tracer:     tracer,
		candidates: make([]int, servers),
	}
	for s := range rf.candidates {
		rf.candidates[s] = s
	}
	rf.onDownFn = rf.onDown
	rf.onUpFn = rf.onUp
	return rf
}

func (rf *routeFaults) onDown(s int) {
	rf.model.SetEligible(s, false, rf.now)
	if rf.pools != nil {
		// The crash destroys every warm instance; the slot restarts cold.
		rf.pools.DropServer(s)
	}
	rf.tracer.FaultEvent("crash", s, rf.now)
	rf.dirty = true
}

func (rf *routeFaults) onUp(s int) {
	rf.model.SetEligible(s, true, rf.now)
	rf.tracer.FaultEvent("recover", s, rf.now)
	rf.dirty = true
}

// Before implements Controller: it applies every fault transition due by
// t and returns the eligible servers, allocation-free when nothing
// transitioned. With every server down the work queues on the
// soonest-recovering one (ties to the lowest index), whose machine kills
// and retries it past recovery, so the load model keeps charging it.
func (rf *routeFaults) Before(t time.Duration) ([]int, int, error) {
	rf.now = t
	rf.fleet.Advance(t, rf.onDownFn, rf.onUpFn)
	if rf.dirty {
		rf.candidates = rf.candidates[:0]
		for s := 0; s < rf.model.Servers(); s++ {
			if !rf.fleet.Down(s) {
				rf.candidates = append(rf.candidates, s)
			}
		}
		rf.dirty = false
	}
	if len(rf.candidates) == 0 {
		return nil, rf.fleet.SoonestUp(), nil
	}
	return rf.candidates, -1, nil
}

// After implements Controller; the fault view books nothing.
func (rf *routeFaults) After(int, Routed, time.Duration) {}

// slow is the straggler demand surcharge for routing inv's pristine
// duration to server s at arrival.
func (rf *routeFaults) slow(s int, arrival, duration time.Duration) time.Duration {
	return rf.fleet.SlowExtra(s, arrival, duration)
}

// addFaultStats folds fault counters into an obs registry.
func addFaultStats(reg *obs.Registry, st faults.Stats) {
	reg.Counter(obs.CFaultCrashes).Add(st.Crashes)
	reg.Counter(obs.CFaultKills).Add(st.Kills)
	reg.Counter(obs.CFaultRetries).Add(st.Retries)
	reg.Counter(obs.CFaultGiveUps).Add(st.GiveUps)
	reg.Counter(obs.CFaultStragglers).Add(st.StragglerWindows)
}
