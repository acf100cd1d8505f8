package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/trace"
)

func testTrace(t *testing.T, minutes int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Minutes = minutes
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildBasics(t *testing.T) {
	tr := testTrace(t, 2)
	invs, err := Builder{}.Build(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Default calibration: ~12.4k invocations in two minutes, paper-scale.
	if len(invs) < 8000 || len(invs) > 18000 {
		t.Errorf("built %d invocations, want ~12442", len(invs))
	}
	model := fib.DefaultModel()
	var prev time.Duration
	for i, inv := range invs {
		if inv.Arrival < prev {
			t.Fatalf("invocation %d out of order", i)
		}
		prev = inv.Arrival
		if inv.FibN < fib.MinN || inv.FibN > fib.MaxN {
			t.Fatalf("invocation %d has FibN %d outside calibration range", i, inv.FibN)
		}
		if inv.Duration != model.Duration(int(inv.FibN)) {
			t.Fatalf("invocation %d duration %v != model %v", i, inv.Duration, model.Duration(int(inv.FibN)))
		}
		if inv.Arrival >= 2*time.Minute {
			t.Fatalf("invocation %d arrival %v outside window", i, inv.Arrival)
		}
		if inv.MemMB <= 0 {
			t.Fatalf("invocation %d memory %d", i, inv.MemMB)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	tr := testTrace(t, 2)
	a, err := Builder{}.Build(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Builder{}.Build(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic build size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("invocation %d differs between identical builds", i)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	tr := testTrace(t, 2)
	if _, err := (Builder{Downscale: -1}).Build(tr, 0, 2); err == nil {
		t.Error("negative downscale accepted")
	}
	if _, err := (Builder{}).Build(tr, 0, 5); err == nil {
		t.Error("window beyond trace accepted")
	}
	if _, err := (Builder{}).Build(tr, -1, 1); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := (Builder{Model: fib.DurationModel{BaseN: 36, Base: -1}}).Build(tr, 0, 2); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestDownscaleArithmetic(t *testing.T) {
	// Hand-built trace: one function, 250 invocations in minute 0.
	tr := &trace.Trace{
		Minutes: 1,
		Rows: []trace.FunctionRow{
			{ID: 0, AvgDuration: 200 * time.Millisecond, MemMB: 128, Counts: []int{250}},
		},
	}
	invs, err := Builder{Downscale: 100}.Build(tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 { // 250/100 = 2
		t.Fatalf("got %d invocations, want 2", len(invs))
	}
	// Evenly spaced: IAT = 60s/2 = 30s.
	if invs[0].Arrival != 0 || invs[1].Arrival != 30*time.Second {
		t.Errorf("arrivals = %v, %v; want 0, 30s", invs[0].Arrival, invs[1].Arrival)
	}
}

func TestSmallCountsVanishUnderDownscale(t *testing.T) {
	tr := &trace.Trace{
		Minutes: 1,
		Rows: []trace.FunctionRow{
			{ID: 0, AvgDuration: 200 * time.Millisecond, MemMB: 128, Counts: []int{99}},
		},
	}
	if _, err := (Builder{Downscale: 100}).Build(tr, 0, 1); err == nil {
		t.Error("expected error for empty downscaled workload")
	}
}

func TestGarbageRowsCleaned(t *testing.T) {
	tr := &trace.Trace{
		Minutes: 1,
		Rows: []trace.FunctionRow{
			{ID: 0, AvgDuration: -time.Second, MemMB: 128, Counts: []int{1000}},
			{ID: 1, AvgDuration: 100 * time.Hour, MemMB: 128, Counts: []int{1000}},
			{ID: 2, AvgDuration: 300 * time.Millisecond, MemMB: 256, Counts: []int{100}},
		},
	}
	invs, err := Builder{Downscale: 1}.Build(tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 100 {
		t.Fatalf("got %d invocations, want 100 (garbage rows must be dropped)", len(invs))
	}
	for _, inv := range invs {
		if inv.MemMB != 256 {
			t.Fatal("invocation from garbage row survived")
		}
	}
}

func TestBucketMergesByFibNAndMemory(t *testing.T) {
	// Two functions with durations that bucket to the same N and equal
	// memory must merge; a third with different memory must not.
	model := fib.DefaultModel()
	d := model.Duration(38)
	tr := &trace.Trace{
		Minutes: 1,
		Rows: []trace.FunctionRow{
			{ID: 0, AvgDuration: d - 10*time.Millisecond, MemMB: 128, Counts: []int{3}},
			{ID: 1, AvgDuration: d + 10*time.Millisecond, MemMB: 128, Counts: []int{3}},
			{ID: 2, AvgDuration: d, MemMB: 512, Counts: []int{2}},
		},
	}
	invs, err := Builder{Downscale: 1}.Build(tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 8 {
		t.Fatalf("got %d invocations, want 8", len(invs))
	}
	mem128, mem512 := 0, 0
	for _, inv := range invs {
		if inv.FibN != 38 {
			t.Fatalf("FibN = %d, want 38", inv.FibN)
		}
		switch inv.MemMB {
		case 128:
			mem128++
		case 512:
			mem512++
		}
	}
	// Merged bucket of 6 at 128MB → IAT 10s; separate bucket of 2 at 512MB.
	if mem128 != 6 || mem512 != 2 {
		t.Errorf("memory split = %d/%d, want 6/2", mem128, mem512)
	}
}

func TestSampledCDFTracksTraceCDF(t *testing.T) {
	// The Fig 10 claim has two layers. First, the sampled *window* is
	// representative of the full trace (tight overlap). Second, bucketing
	// durations onto the φ-ladder distorts the CDF by at most one bucket
	// step (looser bound).
	tr := testTrace(t, 10)
	window, err := tr.DurationCDFWindow(0, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.DurationCDF(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.KSDistance(window, full); d > 0.05 {
		t.Errorf("window-vs-full KS = %v, want < 0.05 (Fig 10 overlap)", d)
	}

	invs, err := Builder{}.Build(tr, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := DurationCDF(invs)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.KSDistance(bucketed, full); d > 0.35 {
		t.Errorf("bucketed-vs-full KS = %v, want < 0.35 (one φ step)", d)
	}
}

func TestTakeN(t *testing.T) {
	invs := []Invocation{{FibN: 36}, {FibN: 37}, {FibN: 38}}
	if got := TakeN(invs, 2); len(got) != 2 {
		t.Errorf("TakeN(2) -> %d", len(got))
	}
	if got := TakeN(invs, 5); len(got) != 3 {
		t.Errorf("TakeN(5) -> %d", len(got))
	}
}

func TestTasksConversion(t *testing.T) {
	invs := []Invocation{
		{Arrival: time.Second, FibN: 37, Duration: 194 * time.Millisecond, MemMB: 256},
	}
	tasks := Tasks(invs)
	if len(tasks) != 1 {
		t.Fatal("wrong task count")
	}
	task := tasks[0]
	if task.ID != 1 || task.Arrival != time.Second || task.Work != 194*time.Millisecond ||
		task.MemMB != 256 || task.FibN != 37 || !strings.Contains(task.Label, "37") {
		t.Errorf("task fields wrong: %+v", task)
	}
	if TotalWork(invs) != 194*time.Millisecond {
		t.Errorf("TotalWork = %v", TotalWork(invs))
	}
}

// TestFileRoundTrip is the shared round-trip test for BOTH readers: the
// materializing Read and the streaming ReadSource must reconstruct the
// written workload identically (Read is a thin adapter over ReadSource,
// but the test would catch either one drifting).
func TestFileRoundTrip(t *testing.T) {
	tr := testTrace(t, 2)
	invs, err := Builder{}.Build(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	invs = TakeN(invs, 500)
	data := func() []byte {
		var buf bytes.Buffer
		if err := Write(&buf, invs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	materialized, err := Read(bytes.NewReader(data), fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	src, readErr, err := ReadSource(bytes.NewReader(data), fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := Materialize(src)
	if err := readErr(); err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string][]Invocation{"Read": materialized, "ReadSource": streamed} {
		if len(got) != len(invs) {
			t.Fatalf("%s round trip: %d vs %d", name, len(got), len(invs))
		}
		for i := range got {
			// Arrivals round to µs in the file; error must not accumulate.
			diff := got[i].Arrival - invs[i].Arrival
			if diff < -time.Microsecond || diff > time.Microsecond {
				t.Fatalf("%s invocation %d arrival drift %v", name, i, diff)
			}
			if got[i].FibN != invs[i].FibN || got[i].MemMB != invs[i].MemMB {
				t.Fatalf("%s invocation %d fields differ", name, i)
			}
		}
	}
	for i := range streamed {
		if streamed[i] != materialized[i] {
			t.Fatalf("streamed and materialized readers disagree at %d: %+v != %+v",
				i, streamed[i], materialized[i])
		}
	}
	// The streaming source is single-pass: a second consumption yields
	// nothing (documented; it reads the underlying io.Reader) and latches
	// a contract-violation error instead of passing silently.
	if again := Materialize(src); len(again) != 0 {
		t.Errorf("second pass over ReadSource yielded %d invocations", len(again))
	}
	if err := readErr(); err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Errorf("second pass not reported as contract violation: %v", err)
	}
}

// TestReadSourceSecondPassLatchesError: re-iterating a ReadSource must
// surface "source already consumed" through the error function — the
// silent-empty-run regression. The latch also fires after an early break
// (the reader position is unrecoverable either way), and it never
// overwrites a real read error from the first pass.
func TestReadSourceSecondPassLatchesError(t *testing.T) {
	const file = "iat_us,fib_n,mem_mb\n1000,36,128\n2000,31,256\n"

	// Full first pass, then a second pass.
	src, readErr, err := ReadSource(strings.NewReader(file), fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Materialize(src); len(got) != 2 {
		t.Fatalf("first pass yielded %d invocations, want 2", len(got))
	}
	if err := readErr(); err != nil {
		t.Fatalf("clean first pass reported error: %v", err)
	}
	if got := Materialize(src); len(got) != 0 {
		t.Errorf("second pass yielded %d invocations", len(got))
	}
	if err := readErr(); err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Errorf("second pass error = %v, want source-already-consumed", err)
	}

	// Early break counts as the one allowed pass.
	src2, readErr2, err := ReadSource(strings.NewReader(file), fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	src2(func(Invocation) bool { return false })
	if err := readErr2(); err != nil {
		t.Fatalf("early break alone reported error: %v", err)
	}
	src2(func(Invocation) bool { return true })
	if err := readErr2(); err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Errorf("resume-after-break error = %v, want source-already-consumed", err)
	}

	// A real parse error from the first pass is not overwritten.
	src3, readErr3, err := ReadSource(
		strings.NewReader("iat_us,fib_n,mem_mb\nbogus,36,128\n"), fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	Materialize(src3)
	Materialize(src3)
	if err := readErr3(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("parse error lost after second pass: %v", err)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "nope\n1,36,128\n",
		"fields":     "iat_us,fib_n,mem_mb\n1,36\n",
		"bad iat":    "iat_us,fib_n,mem_mb\nx,36,128\n",
		"neg iat":    "iat_us,fib_n,mem_mb\n-5,36,128\n",
		"bad n":      "iat_us,fib_n,mem_mb\n1,zero,128\n",
		"bad mem":    "iat_us,fib_n,mem_mb\n1,36,-1\n",
		"no rows":    "iat_us,fib_n,mem_mb\n",
	}
	for name, content := range cases {
		if _, err := Read(strings.NewReader(content), fib.DurationModel{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadSourceErrorReporting: header errors surface immediately; body
// parse errors stop the stream and surface through the error function —
// with every invocation before the bad line already delivered.
func TestReadSourceErrorReporting(t *testing.T) {
	if _, _, err := ReadSource(strings.NewReader("nope\n"), fib.DurationModel{}); err == nil {
		t.Error("bad header accepted")
	}
	if _, _, err := ReadSource(strings.NewReader(""), fib.DurationModel{}); err == nil {
		t.Error("empty file accepted")
	}

	src, readErr, err := ReadSource(
		strings.NewReader("iat_us,fib_n,mem_mb\n1000,36,128\n2000,31,256\nbogus,31,128\n500,31,128\n"),
		fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	got := Materialize(src)
	if len(got) != 2 {
		t.Fatalf("yielded %d invocations before the bad line, want 2", len(got))
	}
	if got[1].Arrival != 3*time.Millisecond {
		t.Errorf("arrival accumulation wrong: %v", got[1].Arrival)
	}
	err = readErr()
	if err == nil {
		t.Fatal("parse error not reported")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error does not name the line: %v", err)
	}
	// An aborted pull (early break) is not an error.
	src2, readErr2, err := ReadSource(
		strings.NewReader("iat_us,fib_n,mem_mb\n1,36,128\n1,36,128\n"), fib.DurationModel{})
	if err != nil {
		t.Fatal(err)
	}
	src2(func(Invocation) bool { return false })
	if err := readErr2(); err != nil {
		t.Errorf("early stop reported error: %v", err)
	}
}

func TestWriteRejectsUnsorted(t *testing.T) {
	invs := []Invocation{
		{Arrival: time.Second, FibN: 36, MemMB: 128},
		{Arrival: 0, FibN: 36, MemMB: 128},
	}
	var buf bytes.Buffer
	if err := Write(&buf, invs); err == nil {
		t.Error("unsorted invocations accepted")
	}
}
