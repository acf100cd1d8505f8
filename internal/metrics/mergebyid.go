// Placement merge: exact-record fleets collect one record slice per
// server, each in completion order, and report both a global slice and
// every server's slice in invocation order. Record IDs are dense — 1 +
// the invocation's routed index, one record per routed invocation — so
// each record's final position is known without comparing anything:
// record ID k goes to slot k-1.

package metrics

import (
	"fmt"
	"math"
)

// MergeByID merges parts — one record slice per server, indexed by
// server — whose IDs must be exactly 1..n, n the total record count, each
// once. It returns a new slice of length n holding record ID k at index
// k-1, and rewrites every parts[s] in place into increasing ID order
// (its length and the records it holds are unchanged). A record may sit
// in any part: the per-part order is rebuilt from where each record was
// found, not from a routing assignment.
//
// It runs in two linear passes without comparing records: placement,
// which also notes each slot's owning part, then a walk of the placed
// records in ID order that refills each part. An ID outside [1, n] or a
// second record for one ID is an error naming the ID and its part, and
// leaves parts unchanged.
func MergeByID(parts [][]Record) ([]Record, error) {
	if len(parts) >= math.MaxInt32 {
		return nil, fmt.Errorf("metrics: %d record parts exceed the owner index", len(parts))
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Record, n)
	// owner[k] is 1 + the part that holds ID k+1; zero marks an empty slot.
	owner := make([]int32, n)
	for s, p := range parts {
		for i := range p {
			id := p[i].ID
			if id < 1 || id > uint64(n) {
				return nil, fmt.Errorf("metrics: record ID %d from server %d outside [1, %d]", id, s, n)
			}
			if prev := owner[id-1]; prev != 0 {
				return nil, fmt.Errorf("metrics: record ID %d from server %d already came from server %d", id, s, prev-1)
			}
			owner[id-1] = int32(s + 1)
			out[id-1] = p[i]
		}
	}
	// Every slot is filled: n distinct IDs in [1, n]. Refill each part in
	// ID order; next[s] is part s's write cursor.
	next := make([]int, len(parts))
	for k, o := range owner {
		s := o - 1
		parts[s][next[s]] = out[k]
		next[s]++
	}
	return out, nil
}
