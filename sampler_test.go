package faassched

// The utilization sampler runs only on a machine whose policy reads it
// (DESIGN.md §16). These tests pin that rule on every scheduler and in
// every fleet mode: a server nobody reads takes no sampler step, arming
// the sampler changes no simulated result, and a reader on a kernel that
// cannot sample is refused up front.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/autoscale"
	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/workload"
)

// utilReader wraps a policy and does one thing more: it registers as a
// utilization reader at Attach, so its server's kernel samples. The
// enclave ticks the inner policy through Unwrap.
type utilReader struct{ ghost.Policy }

func (r utilReader) Attach(env *ghost.Env) {
	r.Policy.Attach(env)
	env.RegisterUtilReader()
}

func (r utilReader) Unwrap() ghost.Policy { return r.Policy }

// readerFleet is one fleet mode of the sampler table: run executes sched
// on it, its policies wrapped in utilReader when read is set, and
// returns the result with every sampler count cleared, the total of
// those counts and the per-server counts of servers that took work.
type readerFleet struct {
	name string
	run  func(t *testing.T, sched Scheduler, read bool, invs []Invocation) (res any, steps uint64, perServer []uint64)
}

// readerPolicy wraps newPolicy's policies in utilReader when read is set.
func readerPolicy(newPolicy func() ghost.Policy, read bool) func() ghost.Policy {
	if !read {
		return newPolicy
	}
	return func() ghost.Policy { return utilReader{newPolicy()} }
}

// clearSteps zeroes a share's sampler count and returns it, with the
// count appended to per when the server took work.
func clearSteps(s *cluster.ServerResult, per []uint64) []uint64 {
	if s.Invocations > 0 {
		per = append(per, s.SampleSteps)
	}
	s.SampleSteps = 0
	return per
}

func readerFleets() []readerFleet {
	fixed := func(t *testing.T, sched Scheduler, read bool) cluster.Config {
		t.Helper()
		_, cfg, err := clusterConfig(ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: sched, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = readerPolicy(cfg.Policy, read)
		return cfg
	}
	return []readerFleet{
		{"exact", func(t *testing.T, sched Scheduler, read bool, invs []Invocation) (any, uint64, []uint64) {
			res, err := cluster.Simulate(fixed(t, sched, read), invs)
			if err != nil {
				t.Fatal(err)
			}
			var per []uint64
			for i := range res.PerServer {
				per = clearSteps(&res.PerServer[i], per)
			}
			steps := res.SampleSteps
			res.SampleSteps = 0
			return res, steps, per
		}},
		{"windowed", func(t *testing.T, sched Scheduler, read bool, invs []Invocation) (any, uint64, []uint64) {
			rep, err := cluster.SimulateShardedWindowed(fixed(t, sched, read), workload.SliceSource(invs), pricing.Default(), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			steps := rep.SampleSteps
			rep.SampleSteps = 0
			return rep, steps, nil
		}},
		{"elastic", func(t *testing.T, sched Scheduler, read bool, invs []Invocation) (any, uint64, []uint64) {
			_, cfg, err := autoscaleConfig(AutoscaleOptions{
				MinServers: 1, MaxServers: 3, CoresPerServer: 4, Scheduler: sched, SpinUp: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sched = readerPolicy(cfg.Sched, read)
			res, err := autoscale.Run(cfg, workload.SliceSource(invs))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Servers) < 2 {
				t.Fatalf("the elastic fleet launched %d servers; the cell does not exercise a join", len(res.Servers))
			}
			var steps uint64
			var per []uint64
			for i := range res.Servers {
				steps += res.Servers[i].SampleSteps
				per = clearSteps(&res.Servers[i].ServerResult, per)
			}
			return res, steps, per
		}},
	}
}

// TestSamplerRunsOnlyWhereRead runs every scheduler in every fleet mode
// twice: plain, and with each policy wrapped in utilReader. The plain
// run's servers take no sampler step, except under hybrid+dyn, whose
// rightsizing reads utilization; every server of a wrapped run that took
// work samples. Records, shares (kernel events and delegation counters
// included) and windowed totals are identical either way: the sampler
// only observes.
func TestSamplerRunsOnlyWhereRead(t *testing.T) {
	invs := autoscaleWorkload(t)
	for _, sched := range Schedulers() {
		for _, fleet := range readerFleets() {
			t.Run(fmt.Sprintf("%s/%s", sched, fleet.name), func(t *testing.T) {
				plain, plainSteps, plainPer := fleet.run(t, sched, false, invs)
				read, readSteps, readPer := fleet.run(t, sched, true, invs)
				if sched == SchedulerHybridDyn {
					if plainSteps == 0 {
						t.Error("hybrid+dyn took no sampler step; its rightsizing reads utilization")
					}
				} else if plainSteps != 0 {
					t.Errorf("%d sampler steps with no utilization reader, want 0", plainSteps)
				}
				if readSteps == 0 || slices.Contains(readPer, 0) {
					t.Errorf("wrapped run: %d sampler steps, per busy server %v; every reading server samples", readSteps, readPer)
				}
				if sched == SchedulerHybridDyn && slices.Contains(plainPer, 0) {
					t.Errorf("hybrid+dyn: sampler steps per busy server %v; every reading server samples", plainPer)
				}
				if !reflect.DeepEqual(plain, read) {
					t.Error("registering a utilization reader changed the simulated result")
				}
			})
		}
	}
}

// TestRecordUtilSamplesEveryServer: the utilization-over-time figures
// read the sampler through RecordUtil, so a recording fleet samples on
// every server that takes work, whatever its scheduler.
func TestRecordUtilSamplesEveryServer(t *testing.T) {
	_, cfg, err := clusterConfig(ClusterOptions{Servers: 3, CoresPerServer: 4, Scheduler: SchedulerCFS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel.RecordUtil = true
	res, err := cluster.Simulate(cfg, goldenWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.PerServer {
		if s.Invocations > 0 && s.SampleSteps == 0 {
			t.Errorf("server %d took %d invocations and no sampler step under RecordUtil", s.Server, s.Invocations)
		}
	}
}

// TestFleetRejectsReaderWithoutSampler: hybrid+dyn reads utilization, so
// a fleet whose kernels sample nothing (SampleEvery 0) fails, naming the
// policy, instead of rightsizing on a utilization that always reads 0.
func TestFleetRejectsReaderWithoutSampler(t *testing.T) {
	_, cfg, err := clusterConfig(ClusterOptions{Servers: 2, CoresPerServer: 4, Scheduler: SchedulerHybridDyn, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel.SampleEvery = 0
	_, err = cluster.Simulate(cfg, goldenWorkload(t))
	if err == nil || !strings.Contains(err.Error(), "policy hybrid reads utilization") {
		t.Errorf("hybrid+dyn on kernels with SampleEvery 0: err = %v, want one naming the policy", err)
	}
}
