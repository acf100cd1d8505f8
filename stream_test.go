package faassched

import (
	"math"
	"sort"
	"testing"
)

// TestSimulateStreamedMatchesSimulate: the facade streaming path must be
// observationally identical to the materialized path — same records, same
// aggregates — for a preempting and a run-to-completion scheduler.
func TestSimulateStreamedMatchesSimulate(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, sched := range []Scheduler{SchedulerCFS, SchedulerFIFO, SchedulerHybrid} {
		opts := Options{Cores: 4, Scheduler: sched}
		mat, err := Simulate(opts, invs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := SimulateStreamed(opts, SliceSource(invs))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Set.Records) != len(mat.Set.Records) {
			t.Fatalf("%s: streamed %d records, materialized %d", sched, len(st.Set.Records), len(mat.Set.Records))
		}
		for i := range mat.Set.Records {
			if st.Set.Records[i] != mat.Set.Records[i] {
				t.Fatalf("%s: record %d differs:\nstreamed     %+v\nmaterialized %+v",
					sched, i, st.Set.Records[i], mat.Set.Records[i])
			}
		}
		if st.Makespan != mat.Makespan || st.Preemptions != mat.Preemptions {
			t.Errorf("%s: aggregates differ", sched)
		}
	}
}

// TestSimulateAccumulatedAgreesWithExact: the fixed-memory accumulator
// run must agree on counts and costs, and land quantiles near the exact
// record set's.
func TestSimulateAccumulatedAgreesWithExact(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	opts := Options{Cores: 4, Scheduler: SchedulerHybrid}
	exact, err := Simulate(opts, invs)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := SimulateAccumulated(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Completed != len(invs) || acc.Failed != 0 {
		t.Fatalf("accumulated %d/%d, want %d/0", acc.Completed, acc.Failed, len(invs))
	}
	if acc.Makespan != exact.Makespan || acc.Preemptions != exact.Preemptions {
		t.Error("accumulated aggregates differ from exact run")
	}
	// The accumulator sums cost in completion order, the exact set in ID
	// order; float addition is order-sensitive at the last ulp.
	if got, want := acc.CostUSD, exact.CostUSD(); math.Abs(got-want) > want*1e-12 {
		t.Errorf("cost %v != %v", got, want)
	}
	ep99, err := exact.P99Seconds(Turnaround)
	if err != nil {
		t.Fatal(err)
	}
	ap99, err := acc.P99Seconds(Turnaround)
	if err != nil {
		t.Fatal(err)
	}
	if ap99 < ep99*0.8 || ap99 > ep99*1.2 {
		t.Errorf("accumulated p99 %.3fs vs exact %.3fs", ap99, ep99)
	}
	if acc.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestBuildWorkloadSourceMatchesBuildWorkload: the lazy source must yield
// the materialized list exactly, including the MaxInvocations fallback.
func TestBuildWorkloadSourceMatchesBuildWorkload(t *testing.T) {
	t.Parallel()
	for _, spec := range []WorkloadSpec{
		{Minutes: 1},
		{Minutes: 1, MaxInvocations: 120},
	} {
		want, err := BuildWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := BuildWorkloadSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []Invocation
		src(func(inv Invocation) bool {
			got = append(got, inv)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("source yields %d, build %d (spec %+v)", len(got), len(want), spec)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("invocation %d differs (spec %+v)", i, spec)
			}
		}
	}
	if _, err := BuildWorkloadSource(WorkloadSpec{Minutes: 99}); err == nil {
		t.Error("bad minutes accepted")
	}
}

// TestStreamedValidation covers the facade streaming error paths.
func TestStreamedValidation(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	if _, err := SimulateStreamed(Options{Cores: 1}, SliceSource(invs)); err == nil {
		t.Error("1-core streamed run accepted")
	}
	if _, err := SimulateStreamed(Options{Scheduler: "bogus"}, SliceSource(invs)); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := SimulateAccumulated(Options{Cores: 1}, SliceSource(invs)); err == nil {
		t.Error("1-core accumulated run accepted")
	}
}

// TestStreamedFirecrackerMatchesMaterialized: the lazy microVM launcher
// (fleet.Stream) must reproduce the materialized Launch walk bit for bit,
// including the memory-wall path where refused launches are retired
// through the sink as Failed records instead of metrics.Collect.
func TestStreamedFirecrackerMatchesMaterialized(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, memMB := range []int{0, 1000} { // default 512GB (no failures), 1GB wall
		opts := Options{Cores: 4, Scheduler: SchedulerCFS, Firecracker: true, ServerMemMB: memMB}
		mat, err := Simulate(opts, invs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := SimulateStreamed(opts, SliceSource(invs))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(mat.Set.Records, func(i, j int) bool { return mat.Set.Records[i].ID < mat.Set.Records[j].ID })
		if len(st.Set.Records) != len(mat.Set.Records) {
			t.Fatalf("memMB=%d: streamed %d records, materialized %d", memMB, len(st.Set.Records), len(mat.Set.Records))
		}
		for i := range mat.Set.Records {
			if st.Set.Records[i] != mat.Set.Records[i] {
				t.Fatalf("memMB=%d: record %d differs:\n%+v\n%+v", memMB, i, st.Set.Records[i], mat.Set.Records[i])
			}
		}
		if st.LaunchedVMs != mat.LaunchedVMs || st.FailedVMs != mat.FailedVMs {
			t.Fatalf("memMB=%d: VM accounting differs: launched %d/%d failed %d/%d",
				memMB, st.LaunchedVMs, mat.LaunchedVMs, st.FailedVMs, mat.FailedVMs)
		}
		if memMB == 1000 && st.FailedVMs == 0 {
			t.Fatal("memory wall produced no failures; equivalence vacuous")
		}
	}
}
