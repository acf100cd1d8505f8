package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFibBase: -fib-base is accepted exactly when every rebased
// argument of the fib.MinN..fib.MaxN ladder lies in [1, math.MaxInt32],
// and a rejection names the flag.
func TestCheckFibBase(t *testing.T) {
	for _, tc := range []struct {
		base int
		ok   bool
	}{
		{28, true},
		{1, true},
		{0, false},
		{-5, false},
		{math.MaxInt32 - 10, true},
		{math.MaxInt32 - 9, false},
		{math.MaxInt64, false},
	} {
		err := checkFibBase(tc.base)
		if tc.ok != (err == nil) {
			t.Errorf("checkFibBase(%d) = %v, want ok=%v", tc.base, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-fib-base") {
			t.Errorf("checkFibBase(%d) = %v, want it to name -fib-base", tc.base, err)
		}
	}
}

// TestBuildSmallRebases: the rebased arguments run from fibBase up by
// the ladder's offsets, at both ends of the accepted range.
func TestBuildSmallRebases(t *testing.T) {
	for _, base := range []int{1, math.MaxInt32 - 10} {
		invs, err := buildSmall(50, base)
		if err != nil {
			t.Fatal(err)
		}
		for i, inv := range invs {
			if int(inv.FibN) < base || int(inv.FibN) > base+10 {
				t.Fatalf("base %d: invocation %d has FibN %d outside [%d, %d]", base, i, inv.FibN, base, base+10)
			}
		}
	}
}
