package faassched

import "testing"

// TestBuildWorkloadSourceMatchesBuildWorkload: the lazy source must yield
// the materialized list exactly, including the MaxInvocations fallback.
func TestBuildWorkloadSourceMatchesBuildWorkload(t *testing.T) {
	t.Parallel()
	for _, spec := range []WorkloadSpec{
		{Minutes: 1},
		{Minutes: 1, MaxInvocations: 120},
	} {
		want, err := BuildWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := BuildWorkloadSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []Invocation
		src(func(inv Invocation) bool {
			got = append(got, inv)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("source yields %d, build %d (spec %+v)", len(got), len(want), spec)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("invocation %d differs (spec %+v)", i, spec)
			}
		}
	}
	if _, err := BuildWorkloadSource(WorkloadSpec{Minutes: 99}); err == nil {
		t.Error("bad minutes accepted")
	}
}
