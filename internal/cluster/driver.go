// The fleet driver: the one routing loop every fleet runs, fixed or
// elastic (DESIGN.md §11). The fixed fleet (runSharded) passes no
// controller hook, or its fault view; the elastic autoscaler passes its
// scaling controller, which joins and retires servers through the driver.

package cluster

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"github.com/faassched/faassched/internal/chunk"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/workload"
)

// Controller is a fleet's hook into the driver's routing loop, called on
// the routing goroutine.
type Controller interface {
	// Before runs for the arrival at t, after the watermarks before it,
	// and returns Router.Route's candidates and fallback.
	Before(t time.Duration) (candidates []int, fallback int, err error)
	// After gets each decision once its arrival is admitted: the server,
	// the Routed message and the booked completion instant.
	After(s int, r Routed, finish time.Duration)
}

// Layout maps a fleet's servers onto the driver's shards and names what
// they record into.
type Layout struct {
	Shards  int
	ShardOf func(server int) int
	// Sink returns a joining server's completion sink. Nil keeps exact
	// records and the assignment: in one array each when Exact, the
	// invocation count, is known, and otherwise in blocks of Block IDs
	// (zero means metrics.SlotBlockSize).
	Sink         func(server int) metrics.Sink
	Exact, Block int
	// Machine, when set, returns a joining server's fault machine.
	Machine func(server int) *faults.Machine
}

// Driver routes one workload onto the lockstep engine (Fleet); its
// methods must be called from the routing goroutine.
type Driver struct {
	cfg     Config
	router  *Router
	fleet   *Fleet
	members pages[*Member] // by server; nil until the server joins
	layout  Layout
	// An exact run's records and assignment: assign holds one entry per
	// invocation when the count is known, log grows in chunks otherwise.
	slots  *metrics.Slots
	assign []int32
	log    chunk.Log[int32]
}

// NewDriver checks cfg's per-server settings, applies the dispatch and
// seed defaults, and starts the engine over cfg.Servers servers (a
// controller may add more).
func NewDriver(cfg Config, l Layout) (*Driver, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: nil Policy factory")
	}
	if cfg.Kernel.Cores < 1 {
		return nil, fmt.Errorf("cluster: Kernel.Cores must be >= 1, got %d", cfg.Kernel.Cores)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("cluster: negative watermark window %v", cfg.Window)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if l.Sink == nil && cfg.Servers > math.MaxInt32 {
		return nil, fmt.Errorf("cluster: %d servers, more than an int32 assignment holds", cfg.Servers)
	}
	if cfg.Dispatch == "" {
		cfg.Dispatch = DispatchLeastLoaded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	model := NewFleetModel(cfg.Servers, cfg.Kernel.Cores)
	d := &Driver{cfg: cfg, members: newPages[*Member](cfg.Servers), layout: l}
	var err error
	if d.router, err = NewRouter(cfg.Dispatch, cfg.Seed, model, cfg.ColdStart, cfg.Obs); err != nil {
		return nil, err
	}
	switch {
	case l.Sink != nil:
	case l.Exact > 0:
		d.slots, d.assign = metrics.NewSlots(l.Exact), make([]int32, l.Exact)
	default:
		d.slots = metrics.NewBlockSlots(cmp.Or(l.Block, metrics.SlotBlockSize))
	}
	d.fleet = NewFleet(cfg.Kernel, cfg.Ghost, cfg.Obs, cfg.Window, l.Shards, l.ShardOf, d.slots)
	return d, nil
}

// Model returns the routing's causal fleet model.
func (d *Driver) Model() *FleetModel { return d.router.model }

// Router returns the routing step.
func (d *Driver) Router() *Router { return d.router }

// Dispatch returns the dispatch policy, defaulted.
func (d *Driver) Dispatch() Dispatch { return d.cfg.Dispatch }

// Run routes src and closes the engine, which drains every server. A nil
// ctl makes every server of the model a candidate for every arrival.
func (d *Driver) Run(src workload.Source, ctl Controller) error {
	if src == nil {
		d.fleet.Close()
		return fmt.Errorf("cluster: nil workload source")
	}
	last := time.Duration(0)
	var err error
	src(func(inv workload.Invocation) bool {
		err = d.route(inv, ctl, &last)
		return err == nil
	})
	if cerr := d.fleet.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("cluster: %w", cerr)
	}
	if err == nil && d.fleet.routed == 0 {
		err = fmt.Errorf("cluster: empty workload")
	}
	return err
}

// route runs the loop's steps for one arrival; last is the arrival
// before it.
func (d *Driver) route(inv workload.Invocation, ctl Controller, last *time.Duration) error {
	idx := d.fleet.routed
	if inv.Arrival < 0 {
		return fmt.Errorf("cluster: invocation %d arrives at %v, before time zero", idx, inv.Arrival)
	}
	if inv.Arrival < *last {
		return fmt.Errorf("cluster: invocations not sorted by arrival at index %d: %v after %v", idx, inv.Arrival, *last)
	}
	*last = inv.Arrival
	if err := inv.Validate(idx); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	d.fleet.Advance(inv.Arrival)
	s, r, finish, err := d.pick(inv, idx, ctl)
	if err != nil {
		return err
	}
	switch {
	case d.slots == nil:
	case d.assign != nil:
		if idx == len(d.assign) {
			return fmt.Errorf("cluster: workload source yielded more than %d invocations", idx)
		}
		d.assign[idx] = int32(s)
	case s > math.MaxInt32:
		return fmt.Errorf("cluster: invocation %d routed to server %d, beyond an int32 assignment", idx, s)
	default:
		d.log.Push(int32(s))
	}
	m := d.members.get(s)
	if m == nil {
		if m, err = d.Join(s); err != nil {
			return err
		}
	}
	d.fleet.Admit(m, r)
	if ctl != nil {
		ctl.After(s, r, finish)
	}
	return nil
}

// pick routes the idx-th arrival among ctl's candidates or, without a
// controller, among every server of the model, all of them eligible.
func (d *Driver) pick(inv workload.Invocation, idx int, ctl Controller) (int, Routed, time.Duration, error) {
	if ctl == nil {
		return d.router.pick(inv, idx, nil)
	}
	cand, fallback, err := ctl.Before(inv.Arrival)
	if err != nil {
		return 0, Routed{}, 0, err
	}
	return d.router.Route(inv, idx, cand, fallback)
}

// Join builds server s's Member (a policy from the factory, its sink and
// its fault machine) and joins it to its shard: at its first arrival, or
// earlier when a controller asks. Policies are built on the routing
// goroutine, so factories need not be goroutine-safe.
func (d *Driver) Join(s int) (*Member, error) {
	policy := d.cfg.Policy()
	if policy == nil {
		return nil, fmt.Errorf("cluster: Policy factory returned nil for server %d", s)
	}
	m := &Member{Index: s, Policy: policy}
	if d.layout.Sink != nil {
		m.Sink = d.layout.Sink(s)
	}
	if d.layout.Machine != nil {
		m.Faults = d.layout.Machine(s)
	}
	d.members.grow(s + 1)
	*d.members.at(s) = m
	d.fleet.Join(m)
	return m, nil
}

// Retire tells the joined server m's shard that m receives nothing more.
func (d *Driver) Retire(m *Member) { d.fleet.Retire(m) }

// Records closes an exact run's store after Run: every record in ID order
// and each invocation's server; nothing for a run with sinks.
func (d *Driver) Records() ([]metrics.Record, []int32, error) {
	if d.slots == nil {
		return nil, nil, nil
	}
	assign := d.assign
	if assign == nil {
		assign = d.log.Flatten()
	}
	recs, err := d.slots.Close(assign)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	return recs, assign, nil
}
