package faassched

// Ownership digests: the hybrid scheduler decides per event which of its
// two engines owns a task — at TASK_DEAD, at eviction, and when it checks
// a FIFO core's runner against the time limit. The main golden matrix
// hashes fault-free runs with fixed core groups, so two paths go unpinned
// there: a crash plan evicting FIFO-queued, FIFO-running and spilled CFS
// tasks while the rightsizer moves cores between the groups, and the
// Firecracker hybrid routing microVM housekeeping straight to the CFS
// group (AuxToCFS). The committed digests in
// testdata/ownership_digests.json pin both, including the fault, spill
// and migration counters.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test -run TestOwnershipDigests -update-golden .

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/firecracker"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
)

const ownershipGoldenPath = "testdata/ownership_digests.json"

// evictCounts tallies eviction requests by where the task sat when the
// fault machine asked for it, and the fleet's FIFO→CFS spills.
type evictCounts struct {
	mu                      sync.Mutex
	fifoQueued, fifoRunning int
	cfsQueued, cfsRunning   int
	spills                  int
}

// evictProbe is a hybrid that classifies each eviction request before
// passing it on. Every other method is the hybrid's own.
type evictProbe struct {
	*core.Hybrid
	n *evictCounts
}

func (p evictProbe) EvictTask(t *simkern.Task) bool {
	running := t.State() == simkern.StateRunning
	p.n.mu.Lock()
	switch {
	case cfs.Owns(t) && running:
		p.n.cfsRunning++
	case cfs.Owns(t):
		p.n.cfsQueued++
	case running:
		p.n.fifoRunning++
	default:
		p.n.fifoQueued++
	}
	p.n.mu.Unlock()
	return p.Hybrid.EvictTask(t)
}

// ownershipCrashFleet runs hybrid+dyn on a fixed 3×4-core fleet under the
// reference crash plan and digests the records, routing, per-server shape,
// fault counters and the hybrid's spill and migration counts.
func ownershipCrashFleet(t *testing.T, invs []Invocation) (string, *evictCounts, *cluster.Result) {
	t.Helper()
	opts, cfg, err := clusterConfig(ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded,
		Scheduler: SchedulerHybridDyn, Seed: 1, Faults: crashPlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &evictCounts{}
	var hybrids []*core.Hybrid
	mk := cfg.Policy
	cfg.Policy = func() ghost.Policy {
		h := mk().(*core.Hybrid)
		n.mu.Lock()
		hybrids = append(hybrids, h)
		n.mu.Unlock()
		return evictProbe{h, n}
	}
	cres, err := cluster.Simulate(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hybrids {
		n.spills += int(h.Spills())
	}
	h := sha256.New()
	fmt.Fprintf(h, "cluster=%s faults=%+v spills=%d migrations=%d\n",
		digestCluster(clusterResult(opts.Scheduler, opts.CoresPerServer, cres)), cres.Faults, n.spills, cres.Stats.Migrations)
	return hex.EncodeToString(h.Sum(nil)), n, cres
}

// ownershipFirecracker runs the Firecracker hybrid with AuxToCFS and
// rightsizing on one 8-core machine and digests its records plus the
// microVM, spill and migration counts.
func ownershipFirecracker(t *testing.T, invs []Invocation) (string, *core.Hybrid, ghost.Stats, *simkern.Kernel) {
	t.Helper()
	hy := core.New(core.Config{
		FIFOCores: 4,
		TimeLimit: core.TimeLimitConfig{Static: 200 * time.Millisecond},
		Rightsize: core.RightsizeConfig{Enabled: true},
		AuxToCFS:  true,
	})
	fleet, err := firecracker.NewFleet(hy, firecracker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var gstats ghost.Stats
	kernel, err := simrun.ExecStats(simkern.DefaultConfig(8), fleet, ghost.Config{},
		func(k *simkern.Kernel) error { return fleet.Launch(k, invs) }, &gstats)
	if err != nil {
		t.Fatal(err)
	}
	set := metrics.Collect(kernel)
	res := &Result{
		Scheduler:   "hybrid+aux",
		Set:         set,
		Makespan:    kernel.Makespan(),
		Preemptions: set.TotalPreemptions(),
		LaunchedVMs: fleet.Launched(),
		FailedVMs:   fleet.Failed(),
	}
	h := sha256.New()
	fmt.Fprintf(h, "result=%s spills=%d migrations=%d\n", digestResult(res), hy.Spills(), gstats.Migrations)
	return hex.EncodeToString(h.Sum(nil)), hy, gstats, kernel
}

func TestOwnershipDigests(t *testing.T) {
	invs := goldenWorkload(t)
	got := map[string]string{}

	crash, n, cres := ownershipCrashFleet(t, invs)
	got["cluster/hybrid+dyn/crash"] = crash
	// Guard against a vacuous pin: the plan must kill tasks, the limit
	// must spill, the rightsizer must move cores, and evictions must
	// reach every place a task can sit.
	t.Logf("crash fleet: kills=%d spills=%d migrations=%d; evictions FIFO queued %d, FIFO running %d, CFS queued %d, CFS running %d",
		cres.Faults.Kills, n.spills, cres.Stats.Migrations, n.fifoQueued, n.fifoRunning, n.cfsQueued, n.cfsRunning)
	if cres.Faults.Kills == 0 || n.spills == 0 || cres.Stats.Migrations == 0 {
		t.Errorf("crash fleet: kills=%d spills=%d migrations=%d, want all > 0",
			cres.Faults.Kills, n.spills, cres.Stats.Migrations)
	}
	if n.fifoQueued == 0 || n.fifoRunning == 0 || n.cfsQueued == 0 || n.cfsRunning == 0 {
		t.Errorf("crash fleet evictions: FIFO queued %d, FIFO running %d, CFS queued %d, CFS running %d; want all > 0",
			n.fifoQueued, n.fifoRunning, n.cfsQueued, n.cfsRunning)
	}

	fc, hy, gstats, kernel := ownershipFirecracker(t, invs)
	got["sim/hybrid+firecracker+aux"] = fc
	aux := 0
	for _, task := range kernel.Tasks() {
		if task.Kind == simkern.KindVMM || task.Kind == simkern.KindIO {
			aux++
		}
	}
	t.Logf("firecracker: aux threads=%d spills=%d migrations=%d", aux, hy.Spills(), gstats.Migrations)
	if aux == 0 || hy.Spills() == 0 || gstats.Migrations == 0 {
		t.Errorf("firecracker: aux threads=%d spills=%d migrations=%d, want all > 0",
			aux, hy.Spills(), gstats.Migrations)
	}

	checkGoldenFile(t, ownershipGoldenPath, got)
}
