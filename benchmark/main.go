// Command benchmark is the simulator's end-to-end benchmark. It replays
// seeded trace workloads through the flat, sharded and elastic fleet
// engines, checks the results, prints every metric by name and unit, and
// ends its output with one JSON result line.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh                                        # every workload
//	bash benchmark/run.sh -workload fleet-hybrid -seed 2 -seconds 20
//	bash benchmark/run.sh -workload idle-fleet-10k -trace 1      # per-layer split
//	bash benchmark/run.sh -out a.json   # ... later, on another commit:
//	bash benchmark/run.sh -out b.json && bash benchmark/run.sh -compare a.json b.json
//
// Each workload's measurement runs in a fresh child process of this binary
// (-child), which makes a warm-up pass and then timed passes back to back,
// so every measurement starts from an empty heap and reports its own peak
// RSS.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// passTimeout bounds one measurement beyond its -seconds window, so a hung
// pass is killed and reported instead of stalling the run.
const passTimeout = 140 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to measure (default: every workload)")
		seed     = fs.Int64("seed", 1, "input seed: the order the trace's minutes replay in, and the dispatch seed")
		seconds  = fs.Float64("seconds", 0, "keep starting timed passes while the next one fits in this many seconds")
		runs     = fs.Int("runs", 3, "minimum timed passes per workload")
		traced   = fs.Int("trace", 0, "1 measures the per-layer split instead of the end-to-end metrics")
		outPath  = fs.String("out", "", "also write the full results, every pass included, as JSON to this file")
		compare  = fs.Bool("compare", false, "compare two -out files (A.json B.json) under the bounds in -spec")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds")
		child    = fs.Bool("child", false, "make the workload's passes in this process and print their reports")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result files: -compare A.json B.json"))
		}
		regressed, err := compareFiles(*specPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	// Validate everything up front, so a typo fails before any pass runs.
	selected := workloads
	if *name != "" {
		w, err := lookup(*name)
		if err != nil {
			return fail(err)
		}
		selected = []spec{w}
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace %d must be 0 or 1", *traced))
	}
	if *runs < 1 {
		return fail(fmt.Errorf("-runs %d must be >= 1", *runs))
	}
	if *seconds < 0 {
		return fail(fmt.Errorf("-seconds %v must be >= 0", *seconds))
	}

	window := time.Duration(*seconds * float64(time.Second))
	if *child {
		if *name == "" {
			return fail(errors.New("-child needs -workload"))
		}
		reps, err := makePasses(selected[0], *seed, window, *runs, *traced == 1)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(reps); err != nil {
			return fail(err)
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	var ms []*measurement
	for _, w := range selected {
		ctx, cancel := context.WithTimeout(context.Background(), window+passTimeout)
		m := measure(ctx, exe, w, *seed, window, *runs, *traced == 1, stderr)
		cancel()
		printMeasurement(stdout, m)
		ms = append(ms, m)
	}
	if *outPath != "" {
		if err := writeResults(*outPath, ms); err != nil {
			return fail(err)
		}
	}
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, m := range ms {
		line.Correct = line.Correct && m.Correct
		line.Attempted += m.Attempted
		line.Failed += m.Failed
		for k, v := range m.Metrics {
			if len(ms) > 1 {
				k = m.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the final line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measurement is every pass made over one workload and what they showed.
type measurement struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digest is the simulated part of the passes' outcome digest, which
	// -compare matches between two measurements of one seed.
	Digest  string               `json:"digest,omitempty"`
	Metrics map[string]value     `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Spreads is each end-to-end metric's interquartile range over the
	// timed passes, as a share of its median.
	Spreads map[string]float64 `json:"spreads,omitempty"`
	Passes  []*report          `json:"passes"`
}

// measure makes w's passes in a fresh child process, then checks them
// against each other and reduces them to metrics.
func measure(ctx context.Context, exe string, w spec, seed int64, window time.Duration, runs int, traced bool, stderr io.Writer) *measurement {
	m := &measurement{Workload: w.name, Seed: seed, Trace: traced}
	reps, err := spawn(ctx, exe, w, seed, window, runs, traced, stderr)
	if err != nil {
		m.Attempted, m.Failed, m.Errors = 1, 1, []string{err.Error()}
		return m
	}
	m.Attempted, m.Passes = len(reps), reps
	m.Errors = checkPasses(w, m.Passes)
	m.Correct = len(m.Errors) == 0
	if !m.Correct {
		return m
	}
	m.Digest = simDigest(m.Passes[0].Outcome.Digest)
	timed := make([]*report, 0, len(reps))
	for _, r := range reps {
		if !r.Warmup {
			timed = append(timed, r)
		}
	}
	if traced {
		m.Metrics = layerMetrics(w, timed)
	} else {
		m.Metrics, m.Samples = endToEndMetrics(timed)
		m.Spreads = map[string]float64{}
		for k, xs := range m.Samples {
			m.Spreads[k] = spread(xs)
		}
	}
	return m
}

// makePasses is a measuring child's work: one warm-up engine pass, then
// rounds of passes (one per mode) until at least runs rounds are done and
// the next round would end past window, counted from the start. The
// warm-up takes the process's one-off start-up costs (faulting in the
// binary, first use of every code path); its report is kept for the
// correctness gate but measures nothing. Every timed pass is bracketed by
// runs of the host reference (hostref.go), so each pass carries the host
// speed around it.
func makePasses(w spec, seed int64, window time.Duration, runs int, traced bool) ([]*report, error) {
	modes := []mode{modeEngine}
	if traced {
		modes = w.tracedModes()
	}
	start := time.Now()
	warm, err := isolatedPass(modeEngine, w, seed)
	if err != nil {
		return nil, err
	}
	warm.Warmup = true
	reps := []*report{warm}
	ref := hostReference()
	round := time.Since(start) * time.Duration(len(modes))
	for done := 0; done < runs || time.Since(start)+round <= window; done++ {
		began := time.Now()
		for _, md := range modes {
			rep, err := isolatedPass(md, w, seed)
			if err != nil {
				return nil, err
			}
			next := hostReference()
			rep.RefS = (ref + next) / 2
			ref = next
			reps = append(reps, rep)
		}
		round = time.Since(began)
	}
	return reps, nil
}

// checkPasses is the cross-pass correctness gate: every pass over one
// input must reach the same simulated outcome, whichever engine entry
// point, pass kind or process ran it.
func checkPasses(w spec, passes []*report) []string {
	var ref *report
	for _, p := range passes {
		if p.Mode == modeEngine {
			ref = p
			break
		}
	}
	if ref == nil {
		return []string{fmt.Sprintf("%s: no engine pass completed", w.name)}
	}
	var errs []string
	for i, p := range passes {
		if err := sameOutcome(ref.Outcome, p.Outcome); err != nil {
			errs = append(errs, fmt.Sprintf("%s: pass %d (%s) disagrees with the first engine pass: %v", w.name, i, p.Mode, err))
		}
		// Sharded counts are the same at any shard count, so the digest
		// barely sees the replay's copy of the partition drift from the
		// engine's (only float sums may differ in their last bits); the
		// per-shard handoff counts would be wrong.
		if p.Replay != nil && w.exec == execSharded {
			if want := int(ref.Outcome.Counts["shards"]); p.Replay.Shards != want {
				errs = append(errs, fmt.Sprintf("%s: pass %d (%s) replayed %d shards, the engine ran %d", w.name, i, p.Mode, p.Replay.Shards, want))
			}
		}
	}
	return errs
}

// spawn makes w's passes in a child process and returns their reports.
func spawn(ctx context.Context, exe string, w spec, seed int64, window time.Duration, runs int, traced bool, stderr io.Writer) ([]*report, error) {
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(window.Seconds(), 'f', -1, 64), "-runs", strconv.Itoa(runs)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: measuring child: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var reps []*report
	if err := json.Unmarshal(lines[len(lines)-1], &reps); err != nil {
		return nil, fmt.Errorf("%s: reading the measuring child's reports: %w", w.name, err)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: the measuring child made no pass", w.name)
	}
	return reps, nil
}

// printMeasurement writes the human-readable summary of one workload.
func printMeasurement(w io.Writer, m *measurement) {
	fmt.Fprintf(w, "%s seed=%d passes=%d failed=%d correct=%v\n", m.Workload, m.Seed, m.Attempted, m.Failed, m.Correct)
	for _, e := range m.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	defs := endToEnd
	if m.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s", d.name, v.Value, v.Unit)
		if xs := m.Samples[d.name]; len(xs) > 1 {
			fmt.Fprintf(w, " spread %5.1f%% of %d passes", 100*m.Spreads[d.name], len(xs))
		}
		fmt.Fprintln(w)
	}
	if len(m.Passes) > 0 && !m.Trace {
		fmt.Fprintf(w, "  sim quantiles over %d completed records\n", m.Passes[0].Outcome.Completed)
	}
}

// results is the -out file: the host the passes ran on, and every
// measurement.
type results struct {
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Measurements []*measurement `json:"measurements"`
}

func writeResults(path string, ms []*measurement) error {
	b, err := json.MarshalIndent(results{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Measurements: ms,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
