package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/simkern"
)

// hybridFleet is a fixed fleet of 4-core hybrid servers with an
// adaptive time limit, so every policy carries state the run grows.
func hybridFleet(servers int, d Dispatch) Config {
	return Config{
		Servers:  servers,
		Dispatch: d,
		Seed:     3,
		Kernel:   simkern.DefaultConfig(4),
		Policy: func() ghost.Policy {
			return core.New(core.Config{FIFOCores: 2, TimeLimit: core.TimeLimitConfig{Percentile: 0.95}})
		},
	}
}

// TestPolicyFactoryCalledPerTouchedServer pins the factory contract's
// cost half: a fixed fleet builds a policy for each server that
// receives work and for no other. Least-loaded dispatch with the lowest
// index winning ties packs this light stream onto a few of 64 servers.
func TestPolicyFactoryCalledPerTouchedServer(t *testing.T) {
	cfg := hybridFleet(64, DispatchLeastLoaded)
	calls := 0
	mk := cfg.Policy
	cfg.Policy = func() ghost.Policy { calls++; return mk() }
	res, err := Simulate(cfg, synthWorkload(400, 5*time.Millisecond, 12*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	for _, sr := range res.PerServer {
		if sr.Invocations > 0 {
			touched++
		}
	}
	if touched == 0 || touched == cfg.Servers {
		t.Fatalf("%d of %d servers received work; the test needs some but not all", touched, cfg.Servers)
	}
	if calls != touched {
		t.Errorf("Policy factory called %d times, want one call per server that received work (%d of %d)", calls, touched, cfg.Servers)
	}
}

// TestPolicyFactoryOrderInvariant hands out the same fleet's policies
// in reverse build order and requires the run to be identical to the
// default one: which factory call a server's policy came from must not
// matter, only that each server has its own fresh policy.
func TestPolicyFactoryOrderInvariant(t *testing.T) {
	invs := synthWorkload(600, 4*time.Millisecond, 0)
	for i := range invs {
		// 1–300 ms of work: long enough tails for the hybrid's time
		// limit to preempt.
		invs[i].Duration = time.Duration(i*37%300+1) * time.Millisecond
	}
	for _, d := range []Dispatch{DispatchLeastLoaded, DispatchRoundRobin} {
		t.Run(string(d), func(t *testing.T) {
			cfg := hybridFleet(12, d)
			want, err := Simulate(cfg, invs)
			if err != nil {
				t.Fatal(err)
			}
			built := make([]ghost.Policy, cfg.Servers)
			for i := range built {
				built[i] = cfg.Policy()
			}
			rev := cfg
			rev.Policy = func() ghost.Policy {
				p := built[len(built)-1]
				built = built[:len(built)-1]
				return p
			}
			got, err := Simulate(rev, invs)
			if err != nil {
				t.Fatal(err)
			}
			if want.Preemptions == 0 {
				t.Fatal("no preemptions: the workload does not exercise the policies' state")
			}
			if !reflect.DeepEqual(got.Set.Records, want.Set.Records) ||
				!reflect.DeepEqual(got.Assignment, want.Assignment) ||
				!reflect.DeepEqual(got.PerServer, want.PerServer) ||
				got.Stats != want.Stats || got.Events != want.Events || got.Makespan != want.Makespan {
				t.Error("reverse-order policies changed the run")
			}
		})
	}
}

// TestPolicyFactoryNilFailsNamingServer: a factory that returns nil
// fails the run with an error naming the server whose first admission
// asked for the policy. Round-robin touches servers in index order, so
// the third call is server 2's.
func TestPolicyFactoryNilFailsNamingServer(t *testing.T) {
	cfg := testConfig(6, DispatchRoundRobin)
	calls := 0
	cfg.Policy = func() ghost.Policy {
		if calls++; calls == 3 {
			return nil
		}
		return fifoFactory()
	}
	_, err := Simulate(cfg, synthWorkload(20, time.Millisecond, time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "Policy factory returned nil for server 2") {
		t.Fatalf("err = %v, want the nil-policy error naming server 2", err)
	}
}
