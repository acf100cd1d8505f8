// Unified counter/gauge registry. Counters are raw int64 slots behind
// stable pointers — registration allocates once, after which Add/Inc are
// plain field increments (no map lookup, no interface call, no
// allocation), cheap enough for control-thread hot loops. Names are
// dotted subsystem.metric strings; the constants below are the canonical
// set so every engine (flat fleet, sharded replay, autoscaler,
// single-machine) reports the same totals under the same keys.

package obs

import (
	"fmt"
	"sort"

	"github.com/faassched/faassched/internal/ghost"
)

// Canonical counter/gauge names. Subsystem prefixes: ghost.* (enclave
// delegation), kern.* (event kernel), coldstart.* (warm-instance model),
// sharded.* (lockstep replay router), autoscale.* (elastic fleet),
// fleet.* (routing layer).
const (
	CGhostDelivered  = "ghost.msgs_delivered"
	CGhostCommits    = "ghost.commits"
	CGhostFailed     = "ghost.commit_failures"
	CGhostTicks      = "ghost.ticks_fired"
	CGhostElided     = "ghost.ticks_elided"
	CGhostMigrations = "ghost.migrations"
	CKernEvents      = "kern.events_scheduled"
	CColdWarmHits    = "coldstart.warm_hits"
	CColdMisses      = "coldstart.cold_misses"
	CInvocations     = "fleet.invocations"
	CWatermarks      = "sharded.watermarks"
	CScaleLaunches   = "autoscale.launches"
	CScaleReady      = "autoscale.ready"
	CScaleDrains     = "autoscale.drains"
	CScaleRetires    = "autoscale.retires"
	CScaleCrashes    = "autoscale.crashes"
	GServerSeconds   = "autoscale.server_seconds"
	CFaultCrashes    = "faults.crashes"
	CFaultKills      = "faults.kills"
	CFaultRetries    = "faults.retries"
	CFaultGiveUps    = "faults.giveups"
	CFaultStragglers = "faults.straggler_windows"
	CFcLaunchFails   = "firecracker.launch_failures"
)

// Counter is a named int64 tally. Not goroutine-safe: a counter belongs
// to its registry's owning thread.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a named float64 accumulator.
type Gauge struct {
	name string
	v    float64
}

// Add accumulates d into the gauge.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry holds named counters and gauges. Registration (Counter/Gauge)
// finds-or-creates by name; a name is permanently one kind — registering
// it as the other panics, since a silent coercion would corrupt merges.
// Not goroutine-safe; see the package comment for the sharding model.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter registered under name, creating it at zero
// on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it at zero on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// AddGhostStats folds one enclave's delegation tallies into the
// canonical ghost.* counters.
func (r *Registry) AddGhostStats(s ghost.Stats) {
	r.Counter(CGhostDelivered).Add(s.Delivered)
	r.Counter(CGhostCommits).Add(s.Commits)
	r.Counter(CGhostFailed).Add(s.Failed)
	r.Counter(CGhostTicks).Add(s.Ticks)
	r.Counter(CGhostElided).Add(s.TicksElided)
	r.Counter(CGhostMigrations).Add(s.Migrations)
}

// Dump flattens the registry into a name→value map for JSON run reports
// (encoding/json emits map keys sorted, so dumps are deterministic).
func (r *Registry) Dump() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = float64(c.v)
	}
	for name, g := range r.gauges {
		out[name] = g.v
	}
	return out
}

// Metric is one registry entry in a sorted Snapshot.
type Metric struct {
	Name  string
	Value float64
}

// Snapshot returns all entries sorted by name, for deterministic text
// output.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: float64(c.v)})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Value: g.v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
