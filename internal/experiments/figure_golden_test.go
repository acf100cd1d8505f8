package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateFigureGolden = flag.Bool("update-figure-golden", false, "rewrite testdata/figure_golden.json")

const figureGoldenPath = "testdata/figure_golden.json"

// goldenFigures are the figures whose runs the hybrid's §IV-B monitor
// drives — its recorded utilization, limit and core-count series (fig14,
// fig16, fig17, fig19) and its rightsizing decisions (fig18, fig19) — and
// ext-coldstart, whose every cell books through the warm pools (§10),
// and the Firecracker figures fig21 and fig22, whose quick-scale server
// refuses some launches, so the key covers the abort path too.
var goldenFigures = []string{"fig14", "fig16", "fig17", "fig18", "fig19", "ext-coldstart", "fig21", "fig22"}

// TestFigureGolden pins the quick-scale CSV bytes of goldenFigures by
// sha256. The digests are those of `faasbench -experiment <id> -scale
// quick -out DIR`: outside -short mode the shared test environment is
// that uncapped quick scale, so the figures come from the runs the other
// tests already make; in -short mode, where the shared environment is
// capped, the test builds its own uncapped one.
//
// Regenerate (only for an intentional semantic change) with:
//
//	go test ./internal/experiments -run TestFigureGolden -update-figure-golden
func TestFigureGolden(t *testing.T) {
	run := sharedRun
	if testing.Short() {
		e := NewEnv(ScaleQuick)
		run = func(_ *testing.T, id string) (*Figure, error) { return Run(e, id) }
	}
	got := map[string]string{}
	for _, id := range goldenFigures {
		fig, err := run(t, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(fig.CSV()))
		got[id] = hex.EncodeToString(sum[:])
	}
	if *updateFigureGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-figure-golden): %v", figureGoldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("digest count %d != committed %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: CSV digest %.12s…, committed %.12s…", id, got[id], w)
		}
	}
}
