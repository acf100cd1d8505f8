package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare reads: each end-to-end
// metric's direction and regression bound (a share of the baseline median).
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict classifies one metric's change from baseline a to candidate b.
// worse is the change as a share of a's median, positive when b is worse;
// a spread wider than the bound leaves the comparison unresolved.
func verdict(a, b []float64, better string, bound float64) (worse, sp float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if better == "higher" {
		worse = -worse
	}
	sp = max(spread(a), spread(b))
	switch {
	case sp > bound:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	case worse < -bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return worse, sp, v
}

// compareFiles compares the untraced measurements of two -out files,
// workload by workload, under the bounds in specPath. Both files must have
// measured each workload at one seed. Simulated metrics, and the outcome
// digest behind them, must then match exactly: any change in them is a
// change of behaviour, which no noise bound covers. It reports whether
// anything regressed.
func compareFiles(specPath, pathA, pathB string, w io.Writer) (bool, error) {
	var bs benchSpec
	if err := readJSON(specPath, &bs); err != nil {
		return false, err
	}
	var ra, rb results
	if err := readJSON(pathA, &ra); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &rb); err != nil {
		return false, err
	}
	index := func(r results) map[string]*measurement {
		out := map[string]*measurement{}
		for _, m := range r.Measurements {
			if !m.Trace {
				out[m.Workload] = m
			}
		}
		return out
	}
	byA, byB := index(ra), index(rb)
	regressed, compared := false, 0
	for _, wl := range workloads {
		a, b := byA[wl.name], byB[wl.name]
		if a == nil || b == nil {
			continue
		}
		if a.Seed != b.Seed {
			return false, fmt.Errorf("%s: %s measured seed %d and %s seed %d; compare measurements of one seed",
				wl.name, pathA, a.Seed, pathB, b.Seed)
		}
		if a.Digest == "" || b.Digest == "" {
			return false, fmt.Errorf("%s: a measurement without an outcome digest; measure it again", wl.name)
		}
		compared++
		fmt.Fprintf(w, "%s (seed %d)\n", wl.name, a.Seed)
		for _, d := range bs.EndToEnd {
			xa, xb := a.Samples[d.Name], b.Samples[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "  %-24s missing\n", d.Name)
				continue
			}
			bound, shown := d.Bound, fmt.Sprintf("%4.1f%%", 100*d.Bound)
			if simulated(d.Name) {
				bound, shown = 0, "exact"
			}
			worse, sp, v := verdict(xa, xb, d.Better, bound)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-24s %14.6g → %-14.6g worse %+6.2f%%  spread %5.2f%%  bound %s  %s\n",
				d.Name, median(xa), median(xb), 100*worse, 100*sp, shown, v)
		}
		// The digest also covers what the metrics round away: preemptions,
		// billed milliseconds, cold starts, give-ups and the makespan.
		if a.Digest != b.Digest {
			regressed = true
			fmt.Fprintf(w, "  %-24s changed: %s → %s  regressed\n", "outcome digest", a.Digest, b.Digest)
		} else {
			fmt.Fprintf(w, "  %-24s identical  unchanged\n", "outcome digest")
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}
	return regressed, nil
}
