package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/faassched/faassched
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelDispatch-8   	 4644812	       609.1 ns/op	     110 B/op	       2 allocs/op
BenchmarkCFSSimulation 	      15	  73305123 ns/op	    137419 events/run	13317651 B/op	  413013 allocs/op
PASS
ok  	github.com/faassched/faassched	31.905s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(results), results)
	}
	kd := results[0]
	if kd.Name != "BenchmarkKernelDispatch" {
		t.Errorf("name = %q, want suffix stripped", kd.Name)
	}
	if kd.Iterations != 4644812 {
		t.Errorf("iterations = %d", kd.Iterations)
	}
	if kd.Metrics["ns/op"] != 609.1 || kd.Metrics["allocs/op"] != 2 {
		t.Errorf("metrics = %v", kd.Metrics)
	}
	cfs := results[1]
	if cfs.Name != "BenchmarkCFSSimulation" {
		t.Errorf("unsuffixed name mangled: %q", cfs.Name)
	}
	if cfs.Metrics["events/run"] != 137419 {
		t.Errorf("custom metric lost: %v", cfs.Metrics)
	}
}

// TestParseKeepsProcsApart: one benchmark run at two GOMAXPROCS values
// (go test -cpu 1,2) keeps a suffix on both rows, while a benchmark run
// once is still stripped.
func TestParseKeepsProcsApart(t *testing.T) {
	in := `BenchmarkReplay/10k 	 3	 900 ns/op
BenchmarkReplay/10k-2 	 3	 600 ns/op
BenchmarkKernelDispatch-2 	 10	 5 ns/op
`
	results, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkReplay/10k-1", "BenchmarkReplay/10k-2", "BenchmarkKernelDispatch"}
	if len(results) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(results), len(want))
	}
	for i, w := range want {
		if results[i].Name != w {
			t.Errorf("row %d named %q, want %q", i, results[i].Name, w)
		}
	}
	if results[0].Metrics["ns/op"] != 900 || results[1].Metrics["ns/op"] != 600 {
		t.Errorf("rows swapped: %+v", results[:2])
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRunEmitsSortedJSON(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `"name": "BenchmarkCFSSimulation"`) {
		t.Errorf("JSON missing benchmark: %s", s)
	}
	if strings.Index(s, "BenchmarkCFSSimulation") > strings.Index(s, "BenchmarkKernelDispatch") {
		t.Error("benchmarks not sorted by name")
	}
	// 137419 events / 0.073305123 s ≈ 1.875e6 events/sec, derived from
	// events/run + ns/op.
	if !strings.Contains(s, `"events/sec": 1874616.`) {
		t.Errorf("derived events/sec missing or wrong: %s", s)
	}
	if strings.Count(s, `"events/sec"`) != 1 {
		t.Errorf("events/sec should derive only for benchmarks reporting events/run: %s", s)
	}
}

func TestDiff(t *testing.T) {
	oldFile := File{Benchmarks: []Result{
		{Name: "BenchmarkCFSSimulation", Metrics: map[string]float64{"ns/op": 23189827, "events/run": 137416}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 10}},
	}}
	newFile := File{Benchmarks: []Result{
		{Name: "BenchmarkCFSSimulation", Metrics: map[string]float64{"ns/op": 1217528, "events/run": 3671, "ticks_elided": 12000}},
		{Name: "BenchmarkAdded", Metrics: map[string]float64{"ns/op": 5}},
	}}
	out := Diff(oldFile, newFile)
	for _, want := range []string{
		"BenchmarkCFSSimulation",
		"events/run",
		"137416 -> 3671",
		"(-97.3%)",
		"ticks_elided",
		"(new metric)",
		"BenchmarkGone: only in old baseline",
		"BenchmarkAdded: only in new baseline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "BenchmarkAdded") > strings.Index(out, "BenchmarkCFSSimulation") {
		t.Error("diff not sorted by benchmark name")
	}
}

func TestFormatDelta(t *testing.T) {
	for _, tc := range []struct {
		oldV, newV float64
		want       string
	}{
		{100, 50, "(-50.0%)"},
		{100, 150, "(+50.0%)"},
		{0, 0, "(±0%)"},
		{0, 5, "(was 0)"},
	} {
		if got := formatDelta(tc.oldV, tc.newV); got != tc.want {
			t.Errorf("formatDelta(%v, %v) = %q, want %q", tc.oldV, tc.newV, got, tc.want)
		}
	}
}
