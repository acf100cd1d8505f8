package autoscale

// Elastic golden digests: exact Run results over scenarios that cover
// every controller path — scale-up and scale-down under each scaling
// policy, a canceled boot, terminal crashes with cold replacements and
// the all-down fallback, and warm pools. The committed digests in
// testdata/elastic_digests.json pin records, routing, the scale-event
// timeline and every server's lifecycle and billing bit for bit, so a
// change to how the fleet is executed must leave them unchanged.
//
// Regenerate (only for an intentional semantic change) with:
//
//	go test ./internal/autoscale -run TestElasticGoldenDigests -update-elastic-golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/workload"
)

var updateElasticGolden = flag.Bool("update-elastic-golden", false, "rewrite testdata/elastic_digests.json")

const elasticGoldenPath = "testdata/elastic_digests.json"

// elasticScenario is one pinned elastic run.
type elasticScenario struct {
	name string
	cfg  Config
	invs []workload.Invocation
	// check guards against a vacuous scenario: it fails when the run did
	// not exercise the path the scenario is named for.
	check func(*Result) error
}

func elasticScenarios() []elasticScenario {
	cycles := func(r *Result) error {
		if r.Launched() <= 1 || r.Drained() == 0 {
			return fmt.Errorf("launched %d drained %d: the fleet never cycled", r.Launched(), r.Drained())
		}
		return nil
	}
	var out []elasticScenario
	for _, pol := range Policies() {
		cfg := fastScaleConfig(1, 4, pol)
		cfg.Sched = cfsFactory
		out = append(out, elasticScenario{name: "scale/" + string(pol), cfg: cfg, invs: burstyWorkload(0, 3), check: cycles})
	}

	cancel := fastScaleConfig(1, 3, PolicyQueueDepth)
	cancel.SpinUp = 10 * time.Second
	cancel.DownCooldown = 50 * time.Millisecond
	var cancelInvs []workload.Invocation
	at := time.Duration(0)
	for i := 0; i < 200; i++ {
		cancelInvs = append(cancelInvs, workload.Invocation{Arrival: at, FibN: 30, Duration: 8 * time.Millisecond, MemMB: 128})
		at += time.Millisecond
	}
	for i := 0; i < 30; i++ {
		cancelInvs = append(cancelInvs, workload.Invocation{Arrival: at, FibN: 25, Duration: time.Millisecond, MemMB: 128})
		at += 200 * time.Millisecond
	}
	out = append(out, elasticScenario{name: "cancel", cfg: cancel, invs: cancelInvs, check: func(r *Result) error {
		for i := range r.Servers {
			if r.Servers[i].Canceled {
				return nil
			}
		}
		return fmt.Errorf("no boot was canceled")
	}})

	crash := fastScaleConfig(1, 3, PolicyTargetUtilization)
	crash.Sched = cfsFactory
	crash.Faults = faults.Config{Seed: 3, CrashMTBF: 4 * time.Second, Retry: faults.RetryPolicy{MaxAttempts: 3}}
	out = append(out, elasticScenario{name: "crash", cfg: crash, invs: burstyWorkload(0, 3), check: func(r *Result) error {
		// The all-down fallback queues arrivals on a crashed server: a
		// record arriving at or after its crash instant proves it ran.
		fallback := false
		for i := range r.Servers {
			sv := &r.Servers[i]
			if !sv.Crashed || sv.Set == nil {
				continue
			}
			for _, rec := range sv.Set.Records {
				fallback = fallback || rec.Arrival >= sv.DrainAt
			}
		}
		switch {
		case r.Crashed() < 2:
			return fmt.Errorf("%d crashes", r.Crashed())
		case !fallback:
			return fmt.Errorf("no arrival took the all-down fallback")
		case r.Faults.Kills == 0 || r.Failed == 0:
			return fmt.Errorf("kills %d failed %d", r.Faults.Kills, r.Failed)
		}
		return nil
	}})

	warm := fastScaleConfig(1, 3, PolicyTargetUtilization)
	warm.Sched = func() ghost.Policy {
		return core.New(core.Config{FIFOCores: 1, TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit}})
	}
	warm.ColdStart = cluster.ColdStartConfig{Latency: 2 * time.Millisecond, KeepAlive: time.Second, WarmFirst: true}
	out = append(out, elasticScenario{name: "warm", cfg: warm, invs: burstyWorkload(0, 2), check: func(r *Result) error {
		if r.ColdStarts == 0 || r.ColdStarts == r.Routed {
			return fmt.Errorf("%d cold starts of %d routed: no warm hit or no cold start", r.ColdStarts, r.Routed)
		}
		return cycles(r)
	}})

	for i := range out {
		out[i].cfg.TrackAssignment = true
	}
	return out
}

// digestElastic hashes everything an exact elastic run decides: every
// record, the assignment, the scale-event timeline, each server's
// lifecycle and shares, and the billed server-seconds.
func digestElastic(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "routed=%d completed=%d failed=%d cold=%d preempt=%d makespan=%d peak=%d seconds=%x crashes=%d\n",
		r.Routed, r.Completed, r.Failed, r.ColdStarts, r.Preemptions, int64(r.Makespan), r.PeakServers,
		math.Float64bits(r.ServerSeconds), r.Faults.Crashes)
	for i, s := range r.Assignment {
		fmt.Fprintf(h, "a%d=%d\n", i, s)
	}
	for _, ev := range r.Events {
		fmt.Fprintf(h, "e%d/%s/%d/%d\n", int64(ev.Time), ev.Kind, ev.Server, ev.Active)
	}
	for i := range r.Servers {
		sv := &r.Servers[i]
		fmt.Fprintf(h, "s%d launch=%d ready=%d drain=%d retire=%d canceled=%t crashed=%t routed=%d ok=%d fail=%d cold=%d preempt=%d makespan=%d\n",
			sv.Index, int64(sv.LaunchAt), int64(sv.ReadyAt), int64(sv.DrainAt), int64(sv.RetireAt),
			sv.Canceled, sv.Crashed, sv.Routed, sv.Completed, sv.Failed, sv.ColdStarts, sv.Preemptions, int64(sv.Makespan))
		if sv.Set == nil {
			continue
		}
		for _, rec := range sv.Set.Records {
			fmt.Fprintf(h, "%+v\n", rec)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runElastic runs one scenario and applies its non-vacuity check.
func runElastic(t *testing.T, sc elasticScenario) *Result {
	t.Helper()
	res, err := Run(sc.cfg, workload.SliceSource(sc.invs))
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	if err := sc.check(res); err != nil {
		t.Fatalf("%s is vacuous: %v", sc.name, err)
	}
	return res
}

func TestElasticGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, sc := range elasticScenarios() {
		got[sc.name] = digestElastic(runElastic(t, sc))
	}
	if *updateElasticGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(elasticGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(elasticGoldenPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-elastic-golden): %v", elasticGoldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("digest count %d != committed %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %.12s…, committed %.12s…", name, got[name], w)
		}
	}
}

// TestElasticShardInvariance: elastic results do not depend on how the
// servers are spread over the engine's shards. GOMAXPROCS moves the
// default shard count (4×GOMAXPROCS, capped at Max); each scenario also
// runs with Max raised to 16 so that every setting gives a different
// count. Digests, enclave counters, kernel events and fault counters must
// agree.
func TestElasticShardInvariance(t *testing.T) {
	type outcome struct {
		digest string
		stats  ghost.Stats
		events uint64
		faults faults.Stats
	}
	var scenarios []elasticScenario
	for _, sc := range elasticScenarios() {
		wide := sc
		wide.name += "/max16"
		wide.cfg.Max = 16
		wide.check = func(r *Result) error {
			if r.Launched() <= 1 {
				return fmt.Errorf("launched %d: one server cannot spread over shards", r.Launched())
			}
			return nil
		}
		scenarios = append(scenarios, sc, wide)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base map[string]outcome
	shards := map[int]bool{}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		shards[cluster.DefaultShards(16)] = true
		got := map[string]outcome{}
		for _, sc := range scenarios {
			r := runElastic(t, sc)
			got[sc.name] = outcome{digestElastic(r), r.Stats, r.KernelEvents, r.Faults}
		}
		if base == nil {
			base = got
			continue
		}
		for name, want := range base {
			if got[name] != want {
				t.Errorf("GOMAXPROCS=%d %s: %+v, want %+v (GOMAXPROCS=1)", procs, name, got[name], want)
			}
		}
	}
	if len(shards) != 3 {
		t.Errorf("shard counts %v: GOMAXPROCS did not move the partition", shards)
	}
}
