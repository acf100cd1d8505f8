package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testShrink runs every workload at 1/50 of its fleet and trace volume.
const testShrink = 50

// shrunk returns the workload with 1/f of its fleet and trace volume, so
// the load per core stays about the same; tests run workloads this way.
func (w spec) shrunk(f int) spec {
	w.servers = max(w.servers/f, 2)
	w.minimum = max(w.minimum/f, 1)
	w.scale /= float64(f)
	return w
}

// checkNames rejects a metric set with a name outside [A-Za-z0-9_.-] or
// without a unit.
func checkNames(m map[string]value) error {
	for name, v := range m {
		if name == "" || v.Unit == "" {
			return fmt.Errorf("metric %q has no name or unit", name)
		}
		for _, r := range name {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '.' || r == '-') {
				return fmt.Errorf("metric name %q has character %q", name, r)
			}
		}
	}
	return nil
}

// tracedPasses makes every pass a traced measurement of w makes, in
// process, and fails on any pass error.
func tracedPasses(t *testing.T, w spec) []*report {
	t.Helper()
	var reps []*report
	for _, m := range w.tracedModes() {
		rep, err := runPass(m, w, 1)
		if err != nil {
			t.Fatalf("%s pass: %v", m, err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// TestPassesAgree is the benchmark's correctness gate at test size: every
// pass over one input — the public entry point, the engine behind the
// timed source, the layer-by-layer replay with the clock on and off —
// reaches the identical simulated outcome, and conserves invocations
// (runPass checks completed + failed == routed == the trace's count).
func TestPassesAgree(t *testing.T) {
	for _, full := range workloads {
		w := full.shrunk(testShrink)
		t.Run(w.name, func(t *testing.T) {
			reps := tracedPasses(t, w)
			if errs := checkPasses(w, reps); len(errs) > 0 {
				t.Fatal(strings.Join(errs, "\n"))
			}
			if reps[0].Outcome.Routed < 1000 {
				t.Fatalf("only %d invocations: the shrunk workload is vacuous", reps[0].Outcome.Routed)
			}
			// The replay laps around every call, so almost nothing escapes
			// attribution. (An engine pass cannot: its drain after the
			// source runs dry belongs to no boundary the wrapper sees.)
			for _, r := range reps {
				if r.Mode != modeReplayTimed {
					continue
				}
				if u := unattributed(r); u > 0.10 || u < -1e-9 {
					t.Errorf("replay pass leaves %.1f%% of its wall time unattributed", 100*u)
				}
			}
		})
	}
}

// TestCheckPassesCatchesMismatch guards the gate itself: a pass whose
// outcome differs in any total is reported, naming the workload.
func TestCheckPassesCatchesMismatch(t *testing.T) {
	w := workloads[0]
	a := &report{Mode: modeEngine, Outcome: outcome{Digest: "n=10 ok=10 events=5"}}
	b := &report{Mode: modeReplayTimed, Outcome: outcome{Digest: "n=10 ok=9 events=5"}}
	errs := checkPasses(w, []*report{a, b})
	if len(errs) != 1 || !strings.Contains(errs[0], w.name) {
		t.Fatalf("mismatch not reported by workload name: %q", errs)
	}
	if errs := checkPasses(w, []*report{b}); len(errs) != 1 {
		t.Fatalf("a measurement without an engine pass passed the gate: %q", errs)
	}
	// The facade's elastic result has no kernel counters; the direct
	// engine pass's extra counters alone are not a mismatch.
	facade := &report{Mode: modeEngine, Outcome: outcome{Digest: "n=10 ok=10"}}
	if errs := checkPasses(w, []*report{facade, a}); len(errs) != 0 {
		t.Fatalf("kernel counters present on one side only flagged: %q", errs)
	}
	// A replay whose shard partition drifted from the engine's may reach
	// the same digest; the shard count still has to agree.
	engine := &report{Mode: modeEngine, Outcome: outcome{Digest: "n=10", Counts: map[string]float64{"shards": 8}}}
	replay := &report{Mode: modeReplayTimed, Outcome: outcome{Digest: "n=10"}, Replay: &replayCounts{Shards: 4}}
	if errs := checkPasses(w, []*report{engine, replay}); len(errs) != 1 || !strings.Contains(errs[0], "shards") {
		t.Fatalf("shard count mismatch not reported: %q", errs)
	}
	replay.Replay.Shards = 8
	if errs := checkPasses(w, []*report{engine, replay}); len(errs) != 0 {
		t.Fatalf("matching shard counts flagged: %q", errs)
	}
}

// TestCompareSimulatedExact checks -compare holds simulated metrics and the
// outcome digest to exact equality, whatever their bound in the spec, and
// refuses to compare measurements of different seeds.
func TestCompareSimulatedExact(t *testing.T) {
	dir := t.TempDir()
	spec := dir + "/BENCHMARK.json"
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "inv_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
		{"name": "sim_cost_per_1k_usd", "unit": "USD", "better": "lower", "bound": 0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, seed int64, rate, cost float64, digest string) string {
		m := &measurement{Workload: workloads[0].name, Seed: seed, Correct: true, Digest: digest,
			Samples: map[string][]float64{"inv_per_s": {rate, rate, rate}, "sim_cost_per_1k_usd": {cost, cost, cost}}}
		b, err := json.Marshal(results{Measurements: []*measurement{m}})
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 100, 0.006, "n=10 cost=1")
	for _, tc := range []struct {
		name      string
		path      string
		regressed bool
		verdicts  map[string]string // line label → verdict ending the line
	}{
		{"identical", write("same.json", 1, 104, 0.006, "n=10 cost=1"), false,
			map[string]string{"inv_per_s": "unchanged", "sim_cost_per_1k_usd": "unchanged", "outcome digest": "unchanged"}},
		{"cost 1% higher", write("cost.json", 1, 100, 0.00606, "n=10 cost=1"), true,
			map[string]string{"sim_cost_per_1k_usd": "regressed", "outcome digest": "unchanged"}},
		{"digest alone", write("digest.json", 1, 100, 0.006, "n=10 cost=3"), true,
			map[string]string{"sim_cost_per_1k_usd": "unchanged", "outcome digest": "regressed"}},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(spec, base, tc.path, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v; output:\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		for label, want := range tc.verdicts {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), label) {
					found = true
					if !strings.HasSuffix(line, want) {
						t.Errorf("%s: %q, want verdict %s", tc.name, line, want)
					}
				}
			}
			if !found {
				t.Errorf("%s: no %s line in:\n%s", tc.name, label, out.String())
			}
		}
	}
	if _, err := compareFiles(spec, base, write("seed2.json", 2, 100, 0.006, "n=10 cost=1"), io.Discard); err == nil {
		t.Error("measurements of seeds 1 and 2 compared")
	}
}

// TestMetricsNamedAndDefined checks every reported metric has a valid
// name and a unit, and that the Go definitions match BENCHMARK.json.
func TestMetricsNamedAndDefined(t *testing.T) {
	w := workloads[0].shrunk(testShrink)
	reps := tracedPasses(t, w)
	e2e, _ := endToEndMetrics(reps[:1])
	for _, m := range []map[string]value{e2e, layerMetrics(w, reps)} {
		if err := checkNames(m); err != nil {
			t.Fatal(err)
		}
		for name, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s = %v", name, v.Value)
			}
		}
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics reported, %d defined", len(e2e), len(endToEnd))
	}

	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		want := make([]struct{ Name, Unit, Better string }, len(defs))
		for i, d := range defs {
			want[i].Name, want[i].Unit, want[i].Better = d.name, d.unit, d.better
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s metrics differ from the benchmark's:\n got %v\nwant %v", kind, got, want)
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	for i, bw := range bench.Workloads {
		if bw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bw.Name, workloads[i].name)
		}
	}
}

// TestResultsRoundTrip checks the -out file and the result line survive
// encoding unchanged.
func TestResultsRoundTrip(t *testing.T) {
	w := workloads[1].shrunk(testShrink)
	rep, err := runPass(modeEngine, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &measurement{Workload: w.name, Seed: 2, Correct: true, Attempted: 1, Passes: []*report{rep}}
	m.Metrics, m.Samples = endToEndMetrics(m.Passes)
	in := results{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Measurements: []*measurement{m}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out results
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("results changed in a JSON round trip:\n%+v\n%+v", in, out)
	}
	line := resultLine{Correct: true, Attempted: 1, Metrics: m.Metrics}
	if b, err = json.Marshal(line); err != nil {
		t.Fatal(err)
	}
	var back resultLine
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(line, back) {
		t.Fatalf("result line changed in a JSON round trip: %v", err)
	}
}

// TestRejectsBadArguments checks invalid flags fail up front, before any
// pass runs, and that an unknown workload lists the valid names.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-runs", "0"},
		{"-seconds", "-1"},
		{"-compare", "only-one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%q: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q printed a result: %q", args, stdout.String())
		}
		if args[1] == "nope" {
			for _, w := range workloads {
				if !strings.Contains(stderr.String(), w.name) {
					t.Errorf("unknown-workload error %q does not list %s", stderr.String(), w.name)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread statistic to Python's
// statistics.quantiles(xs, n=4), so spreads agree with ones computed there.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

// TestVerdict checks -compare's classification in both directions.
func TestVerdict(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v, v} }
	for _, tc := range []struct {
		a, b   []float64
		better string
		want   string
	}{
		{steady(100), steady(105), "lower", "unchanged"},
		{steady(100), steady(115), "lower", "regressed"},
		{steady(100), steady(85), "lower", "improved"},
		{steady(100), steady(85), "higher", "regressed"},
		{steady(100), steady(115), "higher", "improved"},
		{[]float64{80, 100, 120, 140}, steady(100), "lower", "unresolved"},
	} {
		if _, _, got := verdict(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

// TestHostScaling checks wall times are stated at the reference host
// speed: a pass made while the host ran the reference at half speed
// reports twice its raw throughput and half its raw set-up time, and the
// host-independent metrics are untouched.
func TestHostScaling(t *testing.T) {
	raw := &report{WallS: 2, SetupS: 0.5, Allocs: 300, Outcome: outcome{Routed: 100}}
	slow := *raw
	slow.RefS = 2 * refNominalS
	a, _ := endToEndMetrics([]*report{raw})
	b, _ := endToEndMetrics([]*report{&slow})
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	if a["inv_per_s"].Value != 50 || !near(b["inv_per_s"].Value, 100) {
		t.Errorf("inv_per_s raw %v, scaled %v; want 50, 100", a["inv_per_s"].Value, b["inv_per_s"].Value)
	}
	if !near(b["setup_s"].Value, 0.25) || b["allocs_per_inv"].Value != 3 {
		t.Errorf("scaled setup_s %v, allocs_per_inv %v; want 0.25, 3", b["setup_s"].Value, b["allocs_per_inv"].Value)
	}
}

// TestMakePasses checks a measuring child's pass schedule: one warm-up
// engine pass first, then at least the asked-for rounds of every mode.
func TestMakePasses(t *testing.T) {
	w := workloads[2].shrunk(testShrink)
	reps, err := makePasses(w, 1, 0, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	modes := w.tracedModes()
	if len(reps) != 1+2*len(modes) {
		t.Fatalf("%d passes, want a warm-up and 2 rounds of %d", len(reps), len(modes))
	}
	for i, r := range reps {
		want := modes[(i+len(modes)-1)%len(modes)]
		if i == 0 {
			want = modeEngine
		}
		if r.Warmup != (i == 0) || r.Mode != want {
			t.Errorf("pass %d: mode %s warm-up %v", i, r.Mode, r.Warmup)
		}
		if (r.RefS > 0) == r.Warmup {
			t.Errorf("pass %d (warm-up %v): host reference %v s", i, r.Warmup, r.RefS)
		}
	}
	if errs := checkPasses(w, reps); len(errs) > 0 {
		t.Fatal(strings.Join(errs, "\n"))
	}
}
