package faassched

// Observability invariants at the facade level (DESIGN.md §13):
//
//  1. Trace determinism — the trace is a function of simulated state
//     only, so the same run produces the same multiset of event lines at
//     any shard count and through either dataflow. Lines are compared
//     sorted because shard workers emit concurrently.
//  2. Inertness — enabling observation (or passing a zero Obs) changes
//     no simulated decision: digests with obs off, obs zero, and obs
//     fully on are identical.

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"github.com/faassched/faassched/internal/obs"
)

// obsWorkload is a small fixed workload for the obs matrix.
func obsWorkload(t *testing.T) []Invocation {
	t.Helper()
	invs, err := BuildWorkload(WorkloadSpec{Seed: 1, Minutes: 1, MaxInvocations: 300})
	if err != nil {
		t.Fatal(err)
	}
	return invs
}

// sortedTrace returns the trace's event lines sorted, dropping the
// fixed header/footer framing.
func sortedTrace(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace too short: %d lines", len(lines))
	}
	body := lines[1 : len(lines)-2] // strip {"traceEvents":[ … metadata, ]}
	sort.Strings(body)
	return body
}

// traceCluster runs the fixed fleet with tracing on and returns the
// sorted event lines.
func traceCluster(t *testing.T, invs []Invocation, shards int) []string {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceConfig{Segments: true})
	_, err := SimulateCluster(ClusterOptions{
		Servers: 3, CoresPerServer: 4, Scheduler: SchedulerHybrid, Seed: 1,
		Shards: shards,
		Obs:    &obs.Obs{Trace: tr},
	}, invs)
	if err != nil {
		t.Fatalf("cluster shards=%d: %v", shards, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return sortedTrace(t, &buf)
}

// traceSharded runs the lockstep sharded replay with tracing on and
// returns the sorted event lines.
func traceSharded(t *testing.T, invs []Invocation, shards int) []string {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceConfig{Segments: true})
	_, err := SimulateShardedReplay(ClusterOptions{
		Servers: 3, CoresPerServer: 4, Scheduler: SchedulerHybrid, Seed: 1,
		Shards: shards,
		Obs:    &obs.Obs{Trace: tr},
	}, SliceSource(invs))
	if err != nil {
		t.Fatalf("sharded shards=%d: %v", shards, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return sortedTrace(t, &buf)
}

func diffLines(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d trace lines, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: sorted trace line %d differs:\n  got  %s\n  want %s",
				label, i, got[i], want[i])
		}
	}
}

// TestTraceDeterministicAcrossShards pins the trace-export determinism
// claim: the same run at shards {1,3,7}, through the exact fleet and the
// windowed replay, produces byte-identical sorted trace output.
func TestTraceDeterministicAcrossShards(t *testing.T) {
	invs := obsWorkload(t)

	ref := traceCluster(t, invs, 1)
	if len(ref) == 0 {
		t.Fatal("reference trace is empty")
	}
	for _, shards := range []int{3, 7} {
		diffLines(t, "cluster", ref, traceCluster(t, invs, shards))
	}
	// Both entry points run the same engine, so they trace alike.
	for _, shards := range []int{1, 3, 7} {
		diffLines(t, "sharded", ref, traceSharded(t, invs, shards))
	}

	// Every emitted line (comma-terminated event) must be valid JSON.
	for _, line := range ref[:min(len(ref), 50)] {
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimSuffix(line, ",")), &ev); err != nil {
			t.Fatalf("trace line is not valid JSON: %v\n  %s", err, line)
		}
	}
}

// TestObsDisabledIsInert pins the other half of the invariant: a nil
// Obs, a zero Obs (allocated but all facilities off), and a fully
// enabled Obs all produce identical simulated results.
func TestObsDisabledIsInert(t *testing.T) {
	invs := obsWorkload(t)

	run := func(o *obs.Obs) string {
		t.Helper()
		res, err := Simulate(Options{Cores: 8, Scheduler: SchedulerHybrid, Obs: o}, invs)
		if err != nil {
			t.Fatal(err)
		}
		return digestResult(res)
	}
	runCluster := func(o *obs.Obs) string {
		t.Helper()
		res, err := SimulateCluster(ClusterOptions{
			Servers: 3, CoresPerServer: 4, Scheduler: SchedulerHybrid, Seed: 1, Obs: o,
		}, invs)
		if err != nil {
			t.Fatal(err)
		}
		return digestCluster(res)
	}

	enabled := func() *obs.Obs {
		return &obs.Obs{
			Counters: obs.NewRegistry(),
			Trace:    obs.NewTracer(&bytes.Buffer{}, obs.TraceConfig{Segments: true}),
			Prog:     &obs.Progress{},
		}
	}

	if off, zero := run(nil), run(&obs.Obs{}); off != zero {
		t.Errorf("zero Obs changed the single-machine digest: %.12s… vs %.12s…", zero, off)
	} else if on := run(enabled()); on != off {
		t.Errorf("enabled Obs changed the single-machine digest: %.12s… vs %.12s…", on, off)
	}
	if off, zero := runCluster(nil), runCluster(&obs.Obs{}); off != zero {
		t.Errorf("zero Obs changed the cluster digest: %.12s… vs %.12s…", zero, off)
	} else if on := runCluster(enabled()); on != off {
		t.Errorf("enabled Obs changed the cluster digest: %.12s… vs %.12s…", on, off)
	}
}
