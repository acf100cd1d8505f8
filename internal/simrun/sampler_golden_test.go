package simrun

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/workload"
)

var updateSamplerGolden = flag.Bool("update-sampler-golden", false, "rewrite testdata/sampler_golden.json")

const samplerGoldenPath = "testdata/sampler_golden.json"

// samplerCores is the machine size of the sampler golden: two FIFO and
// two CFS cores, so hybrid+dyn's rightsizing has a core to move.
const samplerCores = 4

// samplerWorkload is the sampler golden's input: 3 trace minutes sampled
// to 500 invocations with every arrival in [55 s, 95 s) removed. The gap
// drains the machine across two 30 s watermarks, so the incremental run
// sees idle RunTo calls — the case where the utilization sampler stops
// and re-arms on a new phase.
func samplerWorkload(t *testing.T) []workload.Invocation {
	t.Helper()
	var out []workload.Invocation
	for _, inv := range testInvocations(t, 500) {
		if inv.Arrival >= 55*time.Second && inv.Arrival < 95*time.Second {
			continue
		}
		out = append(out, inv)
	}
	return out
}

// samplerPolicy is the facade's hybrid+dyn: static limit replaced by the
// p95 of recent durations, and utilization-driven rightsizing — the one
// policy whose decisions read the kernel's utilization sampler.
func samplerPolicy() *core.Hybrid {
	return core.New(core.Config{
		FIFOCores: samplerCores / 2,
		TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit, Percentile: 0.95},
		Rightsize: core.RightsizeConfig{Enabled: true},
	})
}

func samplerKernelConfig() simkern.Config {
	kcfg := simkern.DefaultConfig(samplerCores)
	kcfg.RecordUtil = true
	return kcfg
}

func digestSeries(h hash.Hash, s *stats.Series) {
	fmt.Fprintf(h, "series %s n=%d\n", s.Name(), s.Len())
	for _, p := range s.Samples() {
		fmt.Fprintf(h, "%d %x\n", int64(p.T), math.Float64bits(p.V))
	}
}

// digestSamplerRun hashes everything the utilization sampler can reach:
// the per-core UtilHistory, the hybrid monitor's four series (which read
// UtilLast), the records and delegation counters the rightsizing
// decisions shape, and the kernel clock.
func digestSamplerRun(h hash.Hash, k *simkern.Kernel, hy *core.Hybrid, recs []metrics.Record, st ghost.Stats) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	fmt.Fprintf(h, "now=%d makespan=%d stats=%+v\n", int64(k.Now()), int64(k.Makespan()), st)
	for c := 0; c < k.CoreCount(); c++ {
		digestSeries(h, k.UtilHistory(simkern.CoreID(c)))
	}
	digestSeries(h, hy.FIFOUtilSeries())
	digestSeries(h, hy.CFSUtilSeries())
	digestSeries(h, hy.LimitSeries())
	digestSeries(h, hy.FIFOCountSeries())
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", r)
	}
}

// computeSamplerDigests runs hybrid+dyn with RecordUtil through the three
// per-server drivers: materialized (ExecStats), streamed (ExecStream's
// feeder timers) and externally clocked (the kernel under Incremental,
// stepped to 30 s watermarks). The incremental run's clock after every
// step hashes under its own key, incremental-runto, since the other two
// drivers have no such step; the run itself hashes under incremental.
func computeSamplerDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := samplerWorkload(t)
	out := map[string]string{}

	hy := samplerPolicy()
	var st ghost.Stats
	k, err := ExecStats(samplerKernelConfig(), hy, ghost.Config{}, AddTasks(workload.Tasks(invs)), &st)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digestSamplerRun(h, k, hy, metrics.Collect(k).Records, st)
	out["execstats"] = hex.EncodeToString(h.Sum(nil))

	hy = samplerPolicy()
	var set metrics.Set
	k, err = ExecStreamPooled(samplerKernelConfig(), hy, ghost.Config{}, workload.SliceSource(invs), StreamConfig{Sink: &set, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	digestSamplerRun(h, k, hy, set.Records, st)
	out["execstream"] = hex.EncodeToString(h.Sum(nil))

	hy = samplerPolicy()
	set = metrics.Set{}
	inc, err := NewIncremental(samplerKernelConfig(), hy, ghost.Config{}, &set)
	if err != nil {
		t.Fatal(err)
	}
	clock := sha256.New()
	mark := DefaultWindow
	for i, inv := range invs {
		for inv.Arrival > mark {
			if err := inc.RunTo(mark); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(clock, "runto %d now=%d\n", int64(mark), int64(inc.k.Now()))
			mark += DefaultWindow
		}
		if err := inc.Admit(inc.Pool().Get(inv, simkern.TaskID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Drain(); err != nil {
		t.Fatal(err)
	}
	out["incremental-runto"] = hex.EncodeToString(clock.Sum(nil))
	h = sha256.New()
	digestSamplerRun(h, inc.k, hy, set.Records, inc.Stats())
	out["incremental"] = hex.EncodeToString(h.Sum(nil))
	return out
}

// TestSamplerGolden pins the kernel's utilization sampler — every grid
// point, its tie order against same-instant events, where it stops and
// where it leaves the clock — through the policy that reads it, on all
// three per-server drivers.
//
// Regenerate (only for an intentional semantic change) with:
//
//	go test -run TestSamplerGolden -update-sampler-golden ./internal/simrun
func TestSamplerGolden(t *testing.T) {
	got := computeSamplerDigests(t)
	// Lazy admission equals pre-seeding by construction (DESIGN.md §7):
	// the externally clocked run must hash equal to the pre-seeded one,
	// whose digest is pinned, however its steps fall across the gap.
	if got["incremental"] != got["execstats"] {
		t.Errorf("incremental: digest %.12s…, execstats %.12s…", got["incremental"], got["execstats"])
	}
	delete(got, "incremental")
	if *updateSamplerGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(samplerGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(samplerGoldenPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-sampler-golden): %v", samplerGoldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("digest count %d != committed %d", len(got), len(want))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: digest %.12s…, committed %.12s…", key, got[key], w)
		}
	}
}
