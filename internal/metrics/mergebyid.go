// Placement merge: exact-record fleets collect one record Store per
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

// MergeByID merges stores — one per server, indexed by server, nil where
// a server kept none — whose record IDs must be exactly 1..n, n the total
// record count, each once. It returns all, a new slice of length n
// holding record ID k at index k-1, and per, each server's records in
// increasing ID order. A record may sit in any store: a server's order is
// rebuilt from where each record was found, not from a routing
// assignment.
//
// Every per[s] is a sub-slice of one allocation of length n, with its
// capacity capped at its length, so appending to one server's slice never
// writes into the next. A server with no records gets a nil slice.
//
// It runs in two linear passes without comparing records: placement,
// which also notes each slot's owning store, then a walk of the placed
// records in ID order that fills each server's slice. An ID outside
// [1, n] or a second record for one ID is an error naming the ID and its
// server. The stores are never changed.
func MergeByID(stores []*Store) (all []Record, per [][]Record, err error) {
	if len(stores) >= math.MaxInt32 {
		return nil, nil, fmt.Errorf("metrics: %d record stores exceed the owner index", len(stores))
	}
	n := 0
	for _, st := range stores {
		if st != nil {
			n += st.Len()
		}
	}
	per = make([][]Record, len(stores))
	if n == 0 {
		return nil, per, nil
	}
	all = make([]Record, n)
	// owner[k] is 1 + the store that holds ID k+1; zero marks an empty slot.
	owner := make([]int32, n)
	for s, st := range stores {
		if st == nil {
			continue
		}
		for c := range st.Chunks() {
			for i := range c {
				id := c[i].ID
				if id < 1 || id > uint64(n) {
					return nil, nil, fmt.Errorf("metrics: record ID %d from server %d outside [1, %d]", id, s, n)
				}
				if prev := owner[id-1]; prev != 0 {
					return nil, nil, fmt.Errorf("metrics: record ID %d from server %d already came from server %d", id, s, prev-1)
				}
				owner[id-1] = int32(s + 1)
				all[id-1] = c[i]
			}
		}
	}
	// Every slot is filled: n distinct IDs in [1, n]. Lay the servers'
	// slices end to end in server order and fill them in ID order;
	// next[s] is server s's write cursor into grouped.
	grouped := make([]Record, n)
	next := make([]int, len(stores))
	lo := 0
	for s, st := range stores {
		if st == nil || st.Len() == 0 {
			continue
		}
		hi := lo + st.Len()
		per[s] = grouped[lo:hi:hi]
		next[s] = lo
		lo = hi
	}
	for k, o := range owner {
		s := o - 1
		grouped[next[s]] = all[k]
		next[s]++
	}
	return all, per, nil
}
