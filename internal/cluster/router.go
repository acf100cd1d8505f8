// The per-arrival routing step, shared by every fleet mode: the fixed
// fleet's router (runSharded) and the elastic controller
// (autoscale.Run) each decide which servers are candidates for an
// arrival, then hand the rest to Router.Route.

package cluster

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/workload"
)

// Router is the fleet's routing step: the dispatcher's pick among the
// caller's candidates, the straggler surcharge, the warm-instance lookup,
// the booking into the causal fleet model and the warm pools (the
// instance the lookup found is the one booked, so warm/cold cannot
// disagree between them), and the router-side counters. It is front-end state touched only by the
// routing goroutine, so every decision is fixed before the arrival
// reaches a server.
type Router struct {
	dispatch Dispatch
	model    *FleetModel
	disp     Dispatcher
	pools    *WarmPools // nil unless the cold-start model is enabled
	cold     time.Duration
	// faults, when non-nil, is the fixed fleet's fault view; routed
	// demand pays its straggler surcharge.
	faults *routeFaults
	// warmHits/coldMisses tally the warm-pool outcome per routed
	// invocation; nil unless both counting and the cold-start model are
	// enabled (DESIGN.md §13).
	warmHits, coldMisses *obs.Counter
	pg                   *obs.Progress
}

// NewRouter builds the routing step over model: the named dispatcher,
// the warm pools when cs is enabled (sized to the model's servers;
// warm-first dispatch when cs asks for it), and o's router counters.
func NewRouter(d Dispatch, seed int64, model *FleetModel, cs ColdStartConfig, o *obs.Obs) (*Router, error) {
	disp, err := NewDispatcher(d, seed, model)
	if err != nil {
		return nil, err
	}
	r := &Router{dispatch: d, model: model, disp: disp, pg: o.Progress()}
	if cs.Enabled() {
		r.pools = NewWarmPools(cs, model.Servers())
		r.cold = cs.Latency
		if cs.WarmFirst {
			r.disp = WarmFirstDispatcher(disp, r.pools, model)
		}
		if reg := o.Registry(); reg != nil {
			r.warmHits = reg.Counter(obs.CColdWarmHits)
			r.coldMisses = reg.Counter(obs.CColdMisses)
		}
	}
	return r, nil
}

// Pools returns the warm pools, or nil with the cold-start model
// disabled. Callers that add or retire servers keep them in step.
func (r *Router) Pools() *WarmPools { return r.pools }

// Route routes the idx-th arrival inv. With candidates (ascending server
// indices, equal to the model's eligible set) the dispatcher picks among
// them; with none, inv goes to
// fallback, which must then be a server (a negative fallback is an
// error). It returns the chosen server, the Routed message to hand it,
// and the booked completion instant under the lane model.
func (r *Router) Route(inv workload.Invocation, idx int, candidates []int, fallback int) (int, Routed, time.Duration, error) {
	s := fallback
	if len(candidates) > 0 {
		// The candidates are the model's eligible set (SetEligible), so
		// eligibility is membership.
		s = r.disp.Pick(inv, candidates)
		if s < 0 || s >= len(r.model.elig) || !r.model.elig[s] {
			return 0, Routed{}, 0, fmt.Errorf("cluster: dispatch %q picked non-candidate server %d", r.dispatch, s)
		}
	} else if s < 0 {
		return 0, Routed{}, 0, fmt.Errorf("cluster: no routable server at %v", inv.Arrival)
	}
	rt := Routed{Inv: inv, Idx: idx}
	if r.faults != nil {
		rt.Slow = r.faults.slow(s, inv.Arrival, inv.Duration)
	}
	var reuse *WarmInstance
	if r.pools != nil {
		if reuse = r.pools.Warm(s, inv, inv.Arrival); reuse == nil {
			rt.ColdStart = r.cold
		}
	}
	finish := r.model.AssignDemand(s, inv.Arrival, inv.Duration+rt.ColdStart+rt.Slow)
	if r.pools != nil {
		if err := r.pools.Book(s, inv, inv.Arrival, finish, reuse); err != nil {
			return 0, Routed{}, 0, err
		}
		if reuse == nil {
			if r.coldMisses != nil {
				r.coldMisses.Inc()
			}
		} else if r.warmHits != nil {
			r.warmHits.Inc()
		}
	}
	if r.pg != nil {
		r.pg.Routed.Add(1)
	}
	return s, rt, finish, nil
}
