// Command benchfmt converts `go test -bench` text output on stdin into the
// stable JSON format of BENCH_baseline.json, so the repo's performance
// trajectory can be recorded and diffed across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'CFSSimulation|KernelDispatch' -benchmem . | benchfmt > BENCH_baseline.json
//	benchfmt -diff BENCH_baseline.json new.json
//
// scripts/bench_baseline.sh wraps the canonical invocation; -diff prints
// per-benchmark metric deltas between two recorded baselines, so every
// baseline regeneration can document what moved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	diff := flag.Bool("diff", false, "compare two baseline JSON files: benchfmt -diff old.json new.json")
	flag.Parse()
	var err error
	if *diff {
		if flag.NArg() != 2 {
			err = fmt.Errorf("-diff needs exactly two files, got %d", flag.NArg())
		} else {
			err = runDiff(flag.Arg(0), flag.Arg(1), os.Stdout)
		}
	} else if flag.NArg() != 0 {
		err = fmt.Errorf("unexpected arguments %v (reads go test -bench output on stdin)", flag.Args())
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		os.Exit(1)
	}
}

// Result is one benchmark's parsed measurements. Metrics maps unit name
// ("ns/op", "allocs/op", "events/run", ...) to the reported value.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	procs      int                // GOMAXPROCS of the run, from the name suffix
}

// File is the BENCH_baseline.json schema.
type File struct {
	Note       string   `json:"note"`
	Benchmarks []Result `json:"benchmarks"`
}

func run(r io.Reader, w io.Writer) error {
	results, err := Parse(r)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	// Derive simulated-event throughput for benchmarks that report their
	// event volume (b.ReportMetric(..., "events/run")): events/sec =
	// events/run over seconds/op. Derived at encode time so the raw parse
	// stays a faithful transcription of the go test output.
	for _, res := range results {
		events, ok := res.Metrics["events/run"]
		nsOp := res.Metrics["ns/op"]
		if ok && nsOp > 0 {
			res.Metrics["events/sec"] = events / (nsOp / 1e9)
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	out := File{
		Note:       "regenerate with scripts/bench_baseline.sh",
		Benchmarks: results,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runDiff loads two baseline files and writes the per-benchmark deltas.
func runDiff(oldPath, newPath string, w io.Writer) error {
	oldFile, err := load(oldPath)
	if err != nil {
		return err
	}
	newFile, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Fprint(w, Diff(oldFile, newFile))
	return nil
}

// load reads one BENCH_baseline.json-format file.
func load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Diff renders per-benchmark metric deltas between two baselines: one
// block per benchmark present in either file, one line per metric with
// old value, new value, and relative change. Benchmarks or metrics on only
// one side are flagged rather than dropped, so a renamed or newly added
// benchmark is visible in the trajectory.
func Diff(oldFile, newFile File) string {
	olds := map[string]Result{}
	for _, r := range oldFile.Benchmarks {
		olds[r.Name] = r
	}
	news := map[string]Result{}
	names := map[string]bool{}
	for _, r := range newFile.Benchmarks {
		news[r.Name] = r
	}
	for n := range olds {
		names[n] = true
	}
	for n := range news {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var b strings.Builder
	for _, name := range sorted {
		o, haveOld := olds[name]
		n, haveNew := news[name]
		switch {
		case !haveOld:
			fmt.Fprintf(&b, "%s: only in new baseline\n", name)
			continue
		case !haveNew:
			fmt.Fprintf(&b, "%s: only in old baseline\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s\n", name)
		metrics := map[string]bool{}
		for m := range o.Metrics {
			metrics[m] = true
		}
		for m := range n.Metrics {
			metrics[m] = true
		}
		ms := make([]string, 0, len(metrics))
		for m := range metrics {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			ov, inOld := o.Metrics[m]
			nv, inNew := n.Metrics[m]
			// One-sided metrics keep the aligned old -> new row shape with
			// a "-" placeholder, so column-oriented consumers (and eyes)
			// never hit a differently shaped line.
			switch {
			case !inOld:
				fmt.Fprintf(&b, "  %-16s %16s -> %-16s (new metric)\n", m, "-", formatValue(nv))
			case !inNew:
				fmt.Fprintf(&b, "  %-16s %16s -> %-16s (metric removed)\n", m, formatValue(ov), "-")
			default:
				fmt.Fprintf(&b, "  %-16s %16s -> %-16s %s\n", m, formatValue(ov), formatValue(nv), formatDelta(ov, nv))
			}
		}
	}
	return b.String()
}

// formatValue renders a metric compactly (integers without a mantissa).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// formatDelta renders the relative change between two metric values.
func formatDelta(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "(±0%)"
		}
		return "(was 0)"
	}
	pct := 100 * (newV - oldV) / oldV
	return fmt.Sprintf("(%+.1f%%)", pct)
}

// Parse extracts benchmark result lines from go test output. Lines look
// like:
//
//	BenchmarkFoo-8   120   9876543 ns/op   123456 B/op   789 allocs/op
//
// with an optional trailing run of custom metric pairs from
// b.ReportMetric. Non-benchmark lines are ignored. The -GOMAXPROCS suffix
// is stripped, so rows recorded on hosts of different sizes compare by
// name; a benchmark the input holds at several GOMAXPROCS values (go test
// -cpu 1,2) keeps a -N suffix on every row, -1 included, so each stays a
// row of its own.
func Parse(r io.Reader) ([]Result, error) {
	var results []Result
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		res, ok := parseLine(line)
		if ok {
			results = append(results, res)
		}
	}
	procs := map[string]map[int]bool{}
	for _, res := range results {
		if procs[res.Name] == nil {
			procs[res.Name] = map[int]bool{}
		}
		procs[res.Name][res.procs] = true
	}
	for i, res := range results {
		if len(procs[res.Name]) > 1 {
			results[i].Name = fmt.Sprintf("%s-%d", res.Name, res.procs)
		}
	}
	return results, nil
}

func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	// name, iterations, then (value, unit) pairs: at least 4 fields.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	name := fields[0]
	if !strings.HasPrefix(name, "Benchmark") {
		return Result{}, false
	}
	// Strip the -GOMAXPROCS suffix (absent when GOMAXPROCS=1), but only a
	// purely numeric one: sub-benchmark names may contain hyphens.
	procs := 1
	for i := len(name) - 1; i > 0; i-- {
		c := name[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if c == '-' && i < len(name)-1 {
			fmt.Sscanf(name[i+1:], "%d", &procs)
			name = name[:i]
		}
		break
	}
	var iters int64
	if _, err := fmt.Sscanf(fields[1], "%d", &iters); err != nil || iters <= 0 {
		return Result{}, false
	}
	res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}, procs: procs}
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
