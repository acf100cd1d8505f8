package simrun

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/edf"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/las"
	"github.com/faassched/faassched/internal/policy/rr"
	"github.com/faassched/faassched/internal/policy/shinjuku"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// chunkPolicies is every scheduler the facade and the experiments build,
// tick-driven and tickless, on a 4-core machine.
var chunkPolicies = []struct {
	name string
	mk   func() ghost.Policy
}{
	{"fifo", func() ghost.Policy { return fifo.New(fifo.Config{}) }},
	{"fifo+100ms", func() ghost.Policy { return fifo.New(fifo.Config{Quantum: 100 * time.Millisecond}) }},
	{"cfs", func() ghost.Policy { return cfs.New(cfs.Params{}) }},
	{"rr", func() ghost.Policy { return rr.New(rr.Config{}) }},
	{"las", func() ghost.Policy { return las.New(las.Config{}) }},
	{"edf", func() ghost.Policy { return edf.New(edf.Config{}) }},
	{"shinjuku", func() ghost.Policy { return shinjuku.New(shinjuku.Config{}) }},
	{"hybrid", func() ghost.Policy {
		return core.New(core.Config{FIFOCores: 2, TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit}})
	}},
	{"hybrid+dyn", func() ghost.Policy { return samplerPolicy() }},
}

// sameRecords fails t at the first record where got and want differ.
func sameRecords(t *testing.T, got, want []metrics.Record) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	if len(got) != len(want) {
		t.Fatalf("%d records, pre-seeded run has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n  lazy       %+v\n  pre-seeded %+v", i, got[i], want[i])
		}
	}
}

// TestLazyAdmissionMatchesPreSeeding pins the open-admitter rule
// (DESIGN.md §7): both lazy drivers — ExecStream's feeder and an
// externally clocked Incremental — reproduce the fully pre-seeded run of
// the same workload for every scheduler, at chunk sizes far below the
// workload's idle gaps. While a lazy admitter is open the kernel counts a
// not-yet-admitted task as outstanding, exactly as a pre-seeded kernel
// counts its future arrivals, so a machine that idles across an admission
// boundary keeps its agent-tick grid, monitor and sampler running instead
// of letting them die and re-anchor.
func TestLazyAdmissionMatchesPreSeeding(t *testing.T) {
	invs := testInvocations(t, 200)
	kcfg := simkern.DefaultConfig(samplerCores)
	for _, p := range chunkPolicies {
		mat, err := ExecStats(kcfg, p.mk(), ghost.Config{}, AddTasks(workload.Tasks(invs)), nil)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want := metrics.Collect(mat).Records
		for _, chunk := range []time.Duration{time.Second, 37 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/feeder/%v", p.name, chunk), func(t *testing.T) {
				var set metrics.Set
				k, err := ExecStreamPooled(kcfg, p.mk(), ghost.Config{}, workload.SliceSource(invs),
					StreamConfig{Window: chunk, Sink: &set})
				if err != nil {
					t.Fatal(err)
				}
				sameRecords(t, set.Records, want)
				if k.Makespan() != mat.Makespan() {
					t.Errorf("makespan %v, pre-seeded %v", k.Makespan(), mat.Makespan())
				}
			})
			t.Run(fmt.Sprintf("%s/incremental/%v", p.name, chunk), func(t *testing.T) {
				var set metrics.Set
				inc, err := NewIncremental(kcfg, p.mk(), ghost.Config{}, &set)
				if err != nil {
					t.Fatal(err)
				}
				mark := chunk
				for i, inv := range invs {
					for inv.Arrival > mark {
						if err := inc.RunTo(mark); err != nil {
							t.Fatal(err)
						}
						mark += chunk
					}
					if err := inc.Admit(inc.Pool().Get(inv, simkern.TaskID(i+1))); err != nil {
						t.Fatal(err)
					}
				}
				if err := inc.Drain(); err != nil {
					t.Fatal(err)
				}
				sameRecords(t, set.Records, want)
				if inc.Makespan() != mat.Makespan() {
					t.Errorf("makespan %v, pre-seeded %v", inc.Makespan(), mat.Makespan())
				}
			})
		}
	}
}
