// Package cluster scales the single-enclave simulation out to a fleet: N
// independent servers, each its own simkern.Kernel plus ghost enclave
// running a per-server scheduling policy, fronted by a dispatch policy
// that routes every invocation to one server at its arrival time.
//
// Dispatch is fully deterministic (the dispatcher sees only its own
// causal load model, never simulated server state), so the per-server
// simulations are independent. One routing step (Router, router.go) and
// one lockstep engine (Fleet, sharded.go) run every fleet, fixed or
// elastic (internal/autoscale): the routing goroutine routes the arrival
// stream and hands each invocation to the worker owning its server's
// shard, and watermarks release the shards to advance their machines,
// concurrently, in simulated-time steps. Per-server results merge in a
// fixed order, so the result does not depend on the shard count or on
// goroutine scheduling. See DESIGN.md §5 and §11.
package cluster

import (
	"fmt"
	"runtime"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// Config configures a fleet simulation.
type Config struct {
	// Servers is the fleet size. Must be >= 1.
	Servers int
	// Dispatch picks the routing policy. Empty means DispatchLeastLoaded.
	Dispatch Dispatch
	// Seed drives the randomized dispatch policies. Zero means 1.
	Seed int64
	// Kernel is the per-server machine configuration (cores, switch cost,
	// …). Every server gets an identical machine.
	Kernel simkern.Config
	// Policy returns a fresh per-server scheduling policy. It is called
	// once for each server that receives work, at that server's first
	// admission, on the routing goroutine, so calls are sequential but
	// come in first-arrival order, not server order, and a server that
	// receives nothing never gets a policy. Each call must return an
	// independent policy; one that returns nil fails the run with an
	// error naming the server.
	Policy func() ghost.Policy
	// Ghost configures each server's delegation enclave.
	Ghost ghost.Config
	// Window is the watermark step: the router releases the shards to
	// advance their machines every Window of simulated time. Zero means
	// simrun.DefaultWindow. Records do not depend on it (DESIGN.md §7).
	Window time.Duration
	// ColdStart configures the per-function warm-instance model (see
	// coldstart.go and DESIGN.md §10). The zero value disables it, and a
	// disabled model leaves routing and task demands byte-for-byte
	// unchanged.
	ColdStart ColdStartConfig
	// Shards partitions the fleet into contiguous server ranges, each
	// simulated by one worker goroutine and folded into a shard-local
	// result before the deterministic cross-shard merge. Zero picks
	// min(Servers, 4×GOMAXPROCS). Records, counts and histograms are
	// independent of the shard count (DESIGN.md §11); the windowed
	// replay's float cost, summed per shard in push order, matches only
	// to within rounding (DESIGN.md §16).
	Shards int
	// Obs enables the observability layer (counters, trace export,
	// progress). Nil disables it entirely; observation never alters
	// simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
	// Faults is the deterministic fault plan (server crashes, straggler
	// windows, invocation timeouts, retry/backoff — DESIGN.md §14). The
	// zero value disables the layer and leaves every code path
	// byte-for-byte unchanged. Plans that kill require a
	// ghost.TaskEvictor policy (fifo, cfs, hybrid).
	Faults faults.Config
}

// shardRanges splits n servers into at most shards contiguous [lo, hi)
// ranges of near-equal size, in server order.
func shardRanges(n, shards int) [][2]int {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	ranges := make([][2]int, 0, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + (n-lo)/(shards-i)
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// shardPlan resolves the Shards knob against the fleet size.
func shardPlan(servers, shards int) ([][2]int, error) {
	if shards < 0 {
		return nil, fmt.Errorf("cluster: Shards must be >= 0, got %d", shards)
	}
	if shards == 0 {
		shards = DefaultShards(servers)
	}
	return shardRanges(servers, shards), nil
}

// DefaultShards is the shard count of a fleet of at most servers when
// none is asked for: 4×GOMAXPROCS (small shards keep the cores busy when
// load is uneven), capped at the fleet size.
func DefaultShards(servers int) int { return max(1, min(servers, 4*runtime.GOMAXPROCS(0))) }

// ServerResult is one server's share of a run, on every fleet, fixed or
// elastic: the shard that drains the server fills it (Member.Result),
// and Totals.Add sums a fleet's shares.
type ServerResult struct {
	// Server is the fleet index.
	Server int
	// Invocations is how many invocations were routed here. The
	// server's records are the Result.Set records whose Assignment entry
	// is this server; the fleet keeps no per-server copy of them.
	Invocations int
	// Completed and Failed count the server's records; they sum to
	// Invocations once the server has drained.
	Completed, Failed int
	// Makespan is this server's last completion time.
	Makespan time.Duration
	// Preemptions is this server's total preemption count.
	Preemptions int
	// Busy sums the execution time of this server's completed records.
	Busy time.Duration
	// Stats holds this server's enclave delegation counters (messages,
	// commits, fired vs elided agent ticks).
	Stats ghost.Stats
	// Events is how many kernel events this server's run scheduled.
	Events uint64
	// SampleSteps is how many steps the server's utilization sampler
	// took: zero unless its policy reads utilization or the kernel
	// records it (simkern.Kernel.SampleSteps).
	SampleSteps uint64
	// Faults holds this server's fault-machine counters (kills, retries,
	// give-ups); zero when the fault plan is disabled.
	Faults faults.Stats
}

// Totals sums a set of server shares into fleet totals.
type Totals struct {
	// Invocations, Completed and Failed sum the shares' counts.
	Invocations, Completed, Failed int
	// Makespan is the fleet-wide last completion time.
	Makespan time.Duration
	// Preemptions sums preemptions across servers.
	Preemptions int
	// Stats sums enclave delegation counters across servers.
	Stats ghost.Stats
	// Events sums scheduled kernel events across servers.
	Events uint64
	// SampleSteps sums the servers' utilization-sampler steps.
	SampleSteps uint64
	// Faults sums the servers' fault-machine counters; each fleet adds
	// its own routing-side counts (crash and straggler windows).
	Faults faults.Stats
}

// Add folds the share s into t. It is the one place a fleet sums its
// servers' shares.
func (t *Totals) Add(s *ServerResult) {
	t.Invocations += s.Invocations
	t.Completed += s.Completed
	t.Failed += s.Failed
	t.Makespan = max(t.Makespan, s.Makespan)
	t.Preemptions += s.Preemptions
	t.Stats.Accumulate(s.Stats)
	t.Events += s.Events
	t.SampleSteps += s.SampleSteps
	t.Faults.Accumulate(s.Faults)
}

// Result is a finished fleet simulation.
type Result struct {
	// Dispatch that routed the workload.
	Dispatch Dispatch
	// Servers is the fleet size.
	Servers int
	// Set holds every server's records in increasing ID order: record ID
	// k (1 + the invocation's index in the source) sits at index k-1, the
	// slot its server wrote it to.
	Set metrics.Set
	// Totals sums PerServer; its Faults also holds the router-side crash
	// and straggler windows.
	Totals
	// PerServer holds each server's individual result, by fleet index.
	PerServer []ServerResult
	// Assignment maps each input invocation index to its server, an
	// int32 per invocation: Simulate rejects fleets of more than
	// math.MaxInt32 servers, so every index fits.
	Assignment []int32
}

// Imbalance reports max-over-mean busy work across servers: 1.0 is a
// perfectly even split, higher means the dispatch policy concentrated
// load. It returns 0 when the fleet did no work.
func Imbalance(perServer []ServerResult) float64 {
	var total, max time.Duration
	for _, s := range perServer {
		total += s.Busy
		if s.Busy > max {
			max = s.Busy
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(perServer))
	return float64(max) / mean
}

// ImbalanceRatio reports Imbalance over this result's servers.
func (r *Result) ImbalanceRatio() float64 { return Imbalance(r.PerServer) }

// Routed is one invocation tagged with its global (zero-based) index into
// the run's arrival order; the index fixes the task ID (Idx+1) and with it
// the deterministic merge order.
type Routed struct {
	Inv workload.Invocation
	Idx int
	// ColdStart is the instance spin-up latency this routing decision
	// incurred (zero on warm hits and with the model disabled). The
	// per-server run adds it to the task's service demand.
	ColdStart time.Duration
	// Slow is the straggler surcharge the fault plan charges work that
	// starts inside a slowdown window (zero outside windows and with the
	// plan disabled); folded into service demand like ColdStart.
	Slow time.Duration
}

// applyColdStart folds the routing decision's demand surcharges into the
// task's service demand: instance init is CPU work on the instance
// (which is exactly how OS scheduling and function start behavior
// interact), and a straggler window stretches CPU work the same way.
// The shard workers apply it to every admitted task, in every fleet
// mode.
func (r Routed) applyColdStart(t *simkern.Task) *simkern.Task {
	if r.ColdStart > 0 {
		t.Work += r.ColdStart
		t.ColdStart = r.ColdStart
	}
	if r.Slow > 0 {
		t.Work += r.Slow
	}
	return t
}
