package faassched

// Golden determinism digests: every scheduler (single machine and fleet)
// is run on a fixed seed and the full per-invocation record stream is
// hashed. The committed digests in testdata/golden_digests.json pin the
// simulator's observable behavior bit-for-bit — a refactor of the event
// core must not change a single one, because events must keep firing in
// exactly the same (time, class, seq) order. Every scheduler runs through
// BOTH dataflows — materialized (pre-seeded tasks, end-of-run Collect)
// and streamed (lazy admission, completion sinks, task recycling) — and
// every fleet both through the lockstep engine (lazy admission) and the
// pre-seeded oracle; all must hash to the same committed digest.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test -run TestGoldenDigests -update-golden .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/faassched/faassched/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json")

const goldenPath = "testdata/golden_digests.json"

// goldenWorkload is the fixed input: seed 1, one trace minute, stride
// sampled to 400 invocations so the whole matrix stays fast.
func goldenWorkload(t *testing.T) []Invocation {
	t.Helper()
	invs, err := BuildWorkload(WorkloadSpec{Seed: 1, Minutes: 1, MaxInvocations: 400})
	if err != nil {
		t.Fatal(err)
	}
	return invs
}

// goldenObs builds a fully enabled observability bundle (counters,
// tracing with per-core segments to io.Discard, progress atomics). The
// golden matrix runs WITH observation on, so the committed digests prove
// the obs layer is inert — enabling it changes no simulated decision
// (DESIGN.md §13).
func goldenObs(t *testing.T) *obs.Obs {
	t.Helper()
	tr := obs.NewTracer(io.Discard, obs.TraceConfig{Segments: true})
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("golden tracer: %v", err)
		}
	})
	return &obs.Obs{Counters: obs.NewRegistry(), Trace: tr, Prog: &obs.Progress{}}
}

// digestResult canonically serializes a Result's observable state.
func digestResult(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "scheduler=%s makespan=%d preemptions=%d launched=%d failedvms=%d\n",
		r.Scheduler, int64(r.Makespan), r.Preemptions, r.LaunchedVMs, r.FailedVMs)
	for _, rec := range r.Set.Records {
		fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d|%d|%d|%d|%t\n",
			rec.ID, rec.Label, int64(rec.Arrival), int64(rec.FirstRun), int64(rec.Finish),
			int64(rec.CPU), rec.Preemptions, rec.MemMB, rec.FibN, rec.Failed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCluster extends the result digest with the routing decisions and
// per-server shape.
func digestCluster(r *ClusterResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "base=%s dispatch=%s servers=%d\n", digestResult(&r.Result), r.Dispatch, r.Servers)
	for i, s := range r.Assignment {
		fmt.Fprintf(h, "a%d=%d\n", i, s)
	}
	for _, sr := range r.PerServer {
		fmt.Fprintf(h, "s%d n=%d makespan=%d preempt=%d\n", sr.Server, sr.Invocations, int64(sr.Makespan), sr.Preemptions)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// computeDigests runs the golden matrix: single machines through the
// materialized dataflow (pre-seeded tasks, end-of-run Collect), fleets
// through SimulateCluster's lockstep engine.
func computeDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)

	for _, sched := range Schedulers() {
		res, err := Simulate(Options{Cores: 8, Scheduler: sched, Obs: o}, invs)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		out["sim/"+string(sched)] = digestResult(res)
	}

	// One Firecracker-mode run (spawns VMM/IO threads mid-simulation —
	// the heaviest exercise of timer + arrival event interleaving).
	fcres, err := Simulate(Options{Cores: 8, Scheduler: SchedulerHybrid, Firecracker: true, Obs: o}, invs)
	if err != nil {
		t.Fatalf("firecracker: %v", err)
	}
	out["sim/hybrid+firecracker"] = digestResult(fcres)

	for _, f := range goldenFleets() {
		f.opts.Obs = o
		cres, err := SimulateCluster(f.opts, invs)
		if err != nil {
			t.Fatalf("%s: %v", f.key, err)
		}
		out[f.key] = digestCluster(cres)
	}
	return out
}

// goldenFleet is one fleet case of the golden matrix.
type goldenFleet struct {
	key  string
	opts ClusterOptions
}

// goldenFleets is the fleet half of the golden matrix: a 3×4-core hybrid
// fleet under every dispatch policy, and a CFS fleet for the
// preemption-heavy cancel path at cluster scale.
func goldenFleets() []goldenFleet {
	var out []goldenFleet
	for _, d := range Dispatches() {
		out = append(out, goldenFleet{"cluster/hybrid/" + string(d), ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: d, Scheduler: SchedulerHybrid, Seed: 1,
		}})
	}
	return append(out, goldenFleet{"cluster/cfs/least-loaded", ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS, Seed: 1,
	}})
}

// computeStreamedDigests reruns the single-machine half of the golden
// matrix through the streaming dataflow — lazy arrival admission,
// completion-sink retirement, task recycling — under the SAME keys as
// computeDigests: both dataflows must be observationally identical.
// (The Firecracker entry has no streamed analog: microVM launches need
// the materialized workload.)
func computeStreamedDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)

	for _, sched := range Schedulers() {
		res, err := SimulateStreamed(Options{Cores: 8, Scheduler: sched, Obs: o}, SliceSource(invs))
		if err != nil {
			t.Fatalf("streamed %s: %v", sched, err)
		}
		out["sim/"+string(sched)] = digestResult(res)
	}
	return out
}

// computePreSeededDigests replays the fleet half of the golden matrix
// through the pre-seeded oracle: each server's share of the engine's
// routing, fully pre-seeded. The fleet engine admits lazily in watermark
// steps, so this is the fleet's proof that lazy admission is
// observationally invisible.
func computePreSeededDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	for _, f := range goldenFleets() {
		cres, err := SimulateCluster(f.opts, invs)
		if err != nil {
			t.Fatalf("%s: %v", f.key, err)
		}
		out[f.key] = digestCluster(preSeeded(t, f.opts, invs, cres))
	}
	return out
}

// computeAutoscaledDigests reruns the fleet half of the golden matrix
// through the elastic autoscaler pinned to MinServers == MaxServers — no
// scaling decision can fire, so the streaming dispatcher must route,
// simulate, and merge exactly like the fixed fleet. The digests are
// compared against the SAME committed cluster keys: the autoscaler earns
// no digests of its own, it must reproduce the existing ones.
func computeAutoscaledDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)
	for _, f := range goldenFleets() {
		cres, err := SimulateAutoscaledExact(AutoscaleOptions{
			MinServers: f.opts.Servers, MaxServers: f.opts.Servers, CoresPerServer: f.opts.CoresPerServer,
			Dispatch: f.opts.Dispatch, Scheduler: f.opts.Scheduler, Seed: f.opts.Seed, Obs: o,
		}, SliceSource(invs))
		if err != nil {
			t.Fatalf("autoscaled %s: %v", f.key, err)
		}
		out[f.key] = digestCluster(cres)
	}
	return out
}

// computeInstrumentedDigests reruns the fleet half of the golden matrix
// with the fault seam threaded but every fault rate zero (Instrument:
// true — machines constructed, routing hooks installed). The digests are
// compared against the SAME committed cluster keys: the fault layer must
// be byte-for-byte inert when its plan is empty (DESIGN.md §14).
func computeInstrumentedDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)
	for _, f := range goldenFleets() {
		f.opts.Faults, f.opts.Obs = FaultOptions{Instrument: true}, o
		cres, err := SimulateCluster(f.opts, invs)
		if err != nil {
			t.Fatalf("instrumented %s: %v", f.key, err)
		}
		out[f.key] = digestCluster(cres)
	}
	return out
}

func TestGoldenDigests(t *testing.T) {
	got := computeDigests(t)

	// The streamed dataflow must reproduce the materialized digests for
	// every scheduler, and the fleet engine the pre-seeded replay of its
	// routing for every fleet — the proof that lazy admission + sink
	// retirement + task recycling are observationally invisible.
	streamed := computeStreamedDigests(t)
	for k, v := range streamed {
		if got[k] != v {
			t.Errorf("streamed dataflow diverges from materialized on %s:\n  streamed     %.12s…\n  materialized %.12s…", k, v, got[k])
		}
	}
	for k, v := range computePreSeededDigests(t) {
		if got[k] != v {
			t.Errorf("fleet engine diverges from the pre-seeded oracle on %s:\n  pre-seeded %.12s…\n  engine     %.12s…", k, v, got[k])
		}
	}

	// A pinned (min=max) autoscaler must reproduce the fixed streamed
	// fleet bit for bit — the determinism bar for the elastic dispatcher.
	autoscaled := computeAutoscaledDigests(t)
	for k, v := range autoscaled {
		if got[k] != v {
			t.Errorf("pinned autoscaler diverges from fixed fleet on %s:\n  autoscaled %.12s…\n  fixed      %.12s…", k, v, got[k])
		}
	}

	// The fault seam threaded with an empty plan (Instrument) must also
	// reproduce the committed digests — the inertness bar for the fault
	// layer.
	instrumented := computeInstrumentedDigests(t)
	for k, v := range instrumented {
		if got[k] != v {
			t.Errorf("instrumented fault seam diverges from fault-free run on %s:\n  instrumented %.12s…\n  fault-free   %.12s…", k, v, got[k])
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-golden): %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("%s: got %.12s… want %.12s…", k, got[k], want[k]))
		}
	}
	if len(got) != len(want) {
		t.Errorf("digest count %d != committed %d", len(got), len(want))
	}
	if len(bad) > 0 {
		t.Errorf("determinism digests changed:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestGoldenDigestsStableAcrossRuns guards the guard: two in-process runs
// of the same matrix must agree, or the digests prove nothing.
func TestGoldenDigestsStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: double-run covered by TestGoldenDigests")
	}
	a := computeDigests(t)
	b := computeDigests(t)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("digest %s differs between identical runs", k)
		}
	}
}
