package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	envOnce   sync.Once
	sharedEnv *Env
)

// testEnv returns the one quick-scale environment shared across tests
// (workload construction dominates otherwise). In -short mode the derived
// workloads are capped well below the quick-scale defaults, which is what
// keeps the full experiment sweep inside the -short time budget. The
// caches are pre-warmed so parallel subtests only read.
func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		sharedEnv = NewEnv(ScaleQuick)
		if testing.Short() {
			sharedEnv.W2Max = 400
			sharedEnv.W10Max = 600
			sharedEnv.DiurnalMinutes = 6
		}
		if _, err := sharedEnv.W2(); err != nil {
			t.Fatal(err)
		}
		if _, err := sharedEnv.W10(); err != nil {
			t.Fatal(err)
		}
	})
	return sharedEnv
}

// sharedFigure is one experiment rendered once on testEnv.
type sharedFigure struct {
	once sync.Once
	fig  *Figure
	err  error
}

var sharedFigures sync.Map // experiment id -> *sharedFigure

// sharedRun renders experiment id on testEnv once per test binary, so the
// tests that check the same figure share one run.
func sharedRun(t *testing.T, id string) (*Figure, error) {
	t.Helper()
	e := testEnv(t)
	v, _ := sharedFigures.LoadOrStore(id, &sharedFigure{})
	sf := v.(*sharedFigure)
	sf.once.Do(func() { sf.fig, sf.err = Run(e, id) })
	return sf.fig, sf.err
}

func TestScaleParsing(t *testing.T) {
	if s, err := ParseScale("quick"); err != nil || s != ScaleQuick {
		t.Errorf("ParseScale(quick) = %v, %v", s, err)
	}
	if s, err := ParseScale("FULL"); err != nil || s != ScaleFull {
		t.Errorf("ParseScale(FULL) = %v, %v", s, err)
	}
	if s, err := ParseScale("fullscale"); err != nil || s != ScaleFullScale {
		t.Errorf("ParseScale(fullscale) = %v, %v", s, err)
	}
	if _, err := ParseScale("nope"); err == nil {
		t.Error("bad scale accepted")
	}
	if ScaleQuick.String() != "quick" || ScaleFull.String() != "full" ||
		ScaleFullScale.String() != "fullscale" || Scale(9).String() == "" {
		t.Error("scale strings wrong")
	}
}

func TestDownscaleResolution(t *testing.T) {
	if d := NewEnv(ScaleQuick).downscale(); d != 100 {
		t.Errorf("quick downscale = %d, want 100", d)
	}
	if d := NewEnv(ScaleFullScale).downscale(); d != 1 {
		t.Errorf("fullscale downscale = %d, want 1", d)
	}
	e := NewEnv(ScaleFull)
	e.Downscale = 10
	if d := e.downscale(); d != 10 {
		t.Errorf("override downscale = %d, want 10", d)
	}
	if NewEnv(ScaleFullScale).Cores != fullCores {
		t.Error("fullscale should use the paper's enclave size")
	}
}

func TestEnvWorkloadsCachedAndSized(t *testing.T) {
	e := NewEnv(ScaleQuick)
	w2a, err := e.W2()
	if err != nil {
		t.Fatal(err)
	}
	w2b, err := e.W2()
	if err != nil {
		t.Fatal(err)
	}
	if &w2a[0] != &w2b[0] {
		t.Error("W2 not cached")
	}
	if len(w2a) == 0 || len(w2a) > quickW2Target {
		t.Errorf("quick W2 size = %d", len(w2a))
	}
	w10, err := e.W10()
	if err != nil {
		t.Fatal(err)
	}
	if len(w10) == 0 || len(w10) > quickW10Target {
		t.Errorf("quick W10 size = %d", len(w10))
	}
}

func TestP90LimitReasonable(t *testing.T) {
	e := testEnv(t)
	invs, err := e.W2()
	if err != nil {
		t.Fatal(err)
	}
	limit := e.P90Limit(invs)
	// The paper's p90 is 1,633 ms; ours should land in the same decade.
	if limit.Milliseconds() < 300 || limit.Milliseconds() > 6000 {
		t.Errorf("p90 limit = %v, want on the order of 1.6s", limit)
	}
}

func TestRegistryCoversEveryMeasurementFigure(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig4", "fig5", "fig6", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22", "fig23", "table1",
		"ablation-cachepenalty", "ablation-mingran", "ablation-msglatency",
		"ablation-switchcost", "ext-autoscale", "ext-cluster-dispatch",
		"ext-coldstart", "ext-diurnal", "ext-faults", "ext-fullscale",
		"ext-vmthreads", "table1i",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestAllExperimentsRunQuick executes every registered experiment at quick
// scale — the end-to-end integration test of the whole stack. In -short
// mode it still covers every experiment, on the capped workloads from
// testEnv; subtests are independent (each builds its own kernels) and run
// in parallel.
func TestAllExperimentsRunQuick(t *testing.T) {
	testEnv(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := sharedRun(t, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Rows) == 0 {
				t.Fatal("figure has no rows")
			}
			if !strings.Contains(fig.CSV(), fig.Columns[0]) {
				t.Error("CSV missing header")
			}
			if !strings.Contains(fig.Text(), fig.ID) {
				t.Error("Text missing id")
			}
		})
	}
}

// TestSweepCollationOrder: the parallel sweep runner must collate cell
// rows and notes in cell-index order no matter how the pool interleaves,
// check arity through Figure.AddRow at collation, and report the first
// error by index while leaving the figure untouched.
func TestSweepCollationOrder(t *testing.T) {
	e := NewEnv(ScaleQuick)
	e.SweepWorkers = 8
	fig := NewFigure("sweep-test", "collation order", "i", "val")
	const n = 64
	err := e.Sweep(fig, n, func(i int, c *Cell) error {
		c.AddRow(strconv.Itoa(i), strconv.Itoa(i*i))
		if i%16 == 0 {
			c.Note("note %d", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != n {
		t.Fatalf("collated %d rows, want %d", len(fig.Rows), n)
	}
	for i, row := range fig.Rows {
		if row[0] != strconv.Itoa(i) || row[1] != strconv.Itoa(i*i) {
			t.Fatalf("row %d = %v, out of cell-index order", i, row)
		}
	}
	if len(fig.Notes) != 4 || fig.Notes[0] != "note 0" || fig.Notes[3] != "note 48" {
		t.Fatalf("notes collated wrong: %v", fig.Notes)
	}

	failing := NewFigure("sweep-err", "first error by index", "i")
	wantErr := "cell 3 exploded"
	err = e.Sweep(failing, 8, func(i int, c *Cell) error {
		if i >= 3 {
			return fmt.Errorf("cell %d exploded", i)
		}
		c.AddRow(strconv.Itoa(i))
		return nil
	})
	if err == nil || err.Error() != wantErr {
		t.Fatalf("Sweep error = %v, want %q (lowest failing index)", err, wantErr)
	}
	if len(failing.Rows) != 0 {
		t.Fatalf("failed sweep still collated %d rows", len(failing.Rows))
	}
	if err := e.Sweep(failing, 0, nil); err != nil {
		t.Fatalf("empty sweep errored: %v", err)
	}
}

// TestSweepMatchesSerial: a grid experiment rendered through the parallel
// sweep pool must be byte-identical to the forced-serial run.
func TestSweepMatchesSerial(t *testing.T) {
	t.Parallel()
	shared := testEnv(t)
	serial := NewEnv(ScaleQuick)
	serial.W2Max, serial.W10Max, serial.DiurnalMinutes = shared.W2Max, shared.W10Max, shared.DiurnalMinutes
	serial.SweepWorkers = 1
	parallel := NewEnv(ScaleQuick)
	parallel.W2Max, parallel.W10Max, parallel.DiurnalMinutes = shared.W2Max, shared.W10Max, shared.DiurnalMinutes
	parallel.SweepWorkers = 4
	for _, id := range []string{"fig23", "ext-coldstart"} {
		a, err := Run(serial, id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(parallel, id)
		if err != nil {
			t.Fatal(err)
		}
		if a.Text() != b.Text() {
			t.Errorf("%s: parallel sweep diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, a.Text(), b.Text())
		}
	}
}

// TestAutoscaleBoundsValidation: a floor override above the scale-default
// cap must be rejected with a message naming both, not silently pinned.
func TestAutoscaleBoundsValidation(t *testing.T) {
	e := NewEnv(ScaleQuick)
	e.AutoscaleMin = 99
	if _, err := Run(e, "ext-autoscale"); err == nil ||
		!strings.Contains(err.Error(), "99") || !strings.Contains(err.Error(), "-as-max") {
		t.Errorf("floor above default cap: %v", err)
	}
	e.AutoscaleMax = 120
	if _, _, _, err := e.autoscaleBounds(); err != nil {
		t.Errorf("explicit cap above floor rejected: %v", err)
	}
}

// TestFig1CostShape asserts the paper's headline: CFS costs several times
// FIFO on the main workload.
func TestFig1CostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: shape assertions need the full quick workload")
	}
	fig, err := Run(testEnv(t), "fig1")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[3])
		}
		if ratio < 2 {
			t.Errorf("mem %s: CFS/FIFO cost ratio %.2f, want >= 2 (paper: >10)", row[0], ratio)
		}
	}
}

// TestTable1Shape asserts Table I's ordering claims.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: shape assertions need the full quick workload")
	}
	fig, err := Run(testEnv(t), "table1")
	if err != nil {
		t.Fatal(err)
	}
	get := func(metric, col string) float64 {
		colIdx := map[string]int{"fifo": 1, "cfs": 2, "ours": 3}[col]
		for _, row := range fig.Rows {
			if row[0] == metric {
				v, err := strconv.ParseFloat(row[colIdx], 64)
				if err != nil {
					t.Fatalf("bad cell %q", row[colIdx])
				}
				return v
			}
		}
		t.Fatalf("metric %s missing", metric)
		return 0
	}
	// CFS has the best p99 response; FIFO the worst; the hybrid between.
	if !(get("p99_response_s", "cfs") < get("p99_response_s", "ours")) {
		t.Error("CFS p99 response should beat hybrid")
	}
	if !(get("p99_response_s", "ours") < get("p99_response_s", "fifo")) {
		t.Error("hybrid p99 response should beat FIFO")
	}
	// Execution ordering: FIFO <= hybrid < CFS. (The paper's much larger
	// hybrid-vs-CFS margin rests on its FIFO baseline being degraded by
	// native-CFS preemption, which this clean simulator does not have —
	// see the DESIGN.md deviation note.)
	if !(get("p99_execution_s", "fifo") <= get("p99_execution_s", "ours")) {
		t.Error("FIFO p99 execution should be the floor")
	}
	if !(get("p99_execution_s", "ours") < get("p99_execution_s", "cfs")) {
		t.Error("hybrid p99 execution should beat CFS")
	}
	// Cost ordering: ours << cfs (paper: ~40x; we assert >= 2x).
	if !(get("overall_cost_usd", "ours") < get("overall_cost_usd", "cfs")/2) {
		t.Error("hybrid cost should be far below CFS")
	}
}

// TestFig22FirecrackerSavings asserts the hybrid still saves money under
// Firecracker, with a smaller margin than plain processes (paper: ~10%).
func TestFig22FirecrackerSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: shape assertions need the full quick workload")
	}
	fig, err := Run(testEnv(t), "fig22")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		saving, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad saving cell %q", row[3])
		}
		if saving <= 0 {
			t.Errorf("mem %s: hybrid saving %.1f%%, want positive", row[0], saving)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	fig := NewFigure("figX", "demo", "a", "b")
	fig.AddRow("1", "2")
	fig.Note("hello %d", 42)
	text := fig.Text()
	if !strings.Contains(text, "figX") || !strings.Contains(text, "hello 42") {
		t.Errorf("Text = %q", text)
	}
	csv := fig.CSV()
	if csv != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	fig.AddRow("only-one")
}

// TestExtColdStartTrend pins the acceptance claim for the warm-instance
// model: with the model enabled, the cold-start rate is nonzero at every
// TTL, monotonically non-increasing as the keep-alive rises (per
// dispatch×scheduler series), and warm-first dispatch never does worse
// than plain least-loaded at the same TTL.
func TestExtColdStartTrend(t *testing.T) {
	fig, err := sharedRun(t, "ext-coldstart")
	if err != nil {
		t.Fatal(err)
	}
	// Columns: ttl_s dispatch sched cold_n cold_rate_pct ...
	type cell struct {
		ttl  string
		rate float64
	}
	series := map[string][]cell{}
	ttlOrder := []string{}
	for _, row := range fig.Rows {
		rate, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad cold_rate_pct %q: %v", row[4], err)
		}
		if rate <= 0 {
			t.Errorf("ttl=%s %s/%s: cold-start rate is zero with the model enabled", row[0], row[1], row[2])
		}
		k := row[1] + "/" + row[2]
		series[k] = append(series[k], cell{ttl: row[0], rate: rate})
		if len(ttlOrder) == 0 || ttlOrder[len(ttlOrder)-1] != row[0] {
			ttlOrder = append(ttlOrder, row[0])
		}
	}
	if len(ttlOrder) < 2 {
		t.Fatalf("TTL sweep has %d points, want several", len(ttlOrder))
	}
	for k, cells := range series {
		for i := 1; i < len(cells); i++ {
			if cells[i].rate > cells[i-1].rate {
				t.Errorf("%s: cold rate rose from %.2f%% (ttl=%s) to %.2f%% (ttl=%s)",
					k, cells[i-1].rate, cells[i-1].ttl, cells[i].rate, cells[i].ttl)
			}
		}
		if cells[0].rate <= cells[len(cells)-1].rate {
			// The sweep spans 1s..inf; a flat series means the model is inert.
			t.Errorf("%s: cold rate did not fall across the sweep (%.2f%% -> %.2f%%)",
				k, cells[0].rate, cells[len(cells)-1].rate)
		}
	}
	// Warm-first vs least-loaded at equal TTL and scheduler.
	byKey := map[string]float64{}
	for _, row := range fig.Rows {
		rate, _ := strconv.ParseFloat(row[4], 64)
		byKey[row[0]+"/"+row[1]+"/"+row[2]] = rate
	}
	for _, ttl := range ttlOrder {
		for _, sched := range []string{"fifo", "cfs", "hybrid"} {
			ll, okLL := byKey[ttl+"/least-loaded/"+sched]
			wf, okWF := byKey[ttl+"/warm-first/"+sched]
			if !okLL || !okWF {
				t.Fatalf("missing cells for ttl=%s sched=%s", ttl, sched)
			}
			if wf > ll {
				t.Errorf("ttl=%s %s: warm-first cold rate %.2f%% exceeds least-loaded %.2f%%",
					ttl, sched, wf, ll)
			}
		}
	}
}

// TestFig10Deterministic: fig10 renders its three duration CDFs in a
// fixed series order, so two renders are byte-identical.
func TestFig10Deterministic(t *testing.T) {
	e := testEnv(t)
	first, err := Run(e, "fig10")
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(e, "fig10")
	if err != nil {
		t.Fatal(err)
	}
	if first.CSV() != second.CSV() {
		t.Error("fig10 CSV differs between two renders")
	}
	var order []string
	for _, row := range first.Rows {
		if len(order) == 0 || order[len(order)-1] != row[0] {
			order = append(order, row[0])
		}
	}
	if want := []string{"full_trace", "sampled_window", "sampled_bucketed"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("fig10 series order %v, want %v", order, want)
	}
}
