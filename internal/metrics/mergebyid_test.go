package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// sortMerge is the sort-based merge MergeByID replaced, kept as the
// reference: sort each part by ID, concatenate the parts in index order,
// sort the whole by ID.
func sortMerge(parts [][]Record) []Record {
	var all []Record
	for _, p := range parts {
		sort.Slice(p, func(a, b int) bool { return p[a].ID < p[b].ID })
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// mergeRecord synthesizes a record whose every field is distinct per ID,
// so a misplaced or duplicated record cannot compare equal.
func mergeRecord(rng *rand.Rand, id int) Record {
	arrival := time.Duration(rng.Int63n(int64(time.Minute)))
	return Record{
		ID:          uint64(id),
		Label:       fmt.Sprintf("f%d", rng.Intn(50)),
		Arrival:     arrival,
		FirstRun:    arrival + time.Duration(rng.Int63n(int64(time.Second))),
		Finish:      arrival + time.Duration(id)*time.Millisecond + time.Second,
		CPU:         time.Duration(id) * time.Microsecond,
		Preemptions: rng.Intn(4),
		MemMB:       128 << rng.Intn(4),
		Failed:      rng.Intn(20) == 0,
		Attempts:    rng.Intn(3),
		Wasted:      time.Duration(rng.Intn(3)) * time.Millisecond,
	}
}

// completionOrder reorders each part the way a server pushes records:
// by finish instant, not by ID.
func completionOrder(parts [][]Record) {
	for _, p := range parts {
		sort.SliceStable(p, func(a, b int) bool { return p[a].Finish < p[b].Finish })
	}
}

// clonePartition deep-copies parts (nil parts stay nil).
func clonePartition(parts [][]Record) [][]Record {
	out := make([][]Record, len(parts))
	for s, p := range parts {
		if p != nil {
			out[s] = append([]Record(nil), p...)
		}
	}
	return out
}

// randomPartition spreads IDs 1..n over k parts by a routing assignment,
// then moves a fraction of them (moved, in [0, 1]) to a different part
// than their assigned one — a retry finishing on another server. Parts
// a small fleet never routes to stay empty (nil).
func randomPartition(rng *rand.Rand, n, k int, moved float64) [][]Record {
	parts := make([][]Record, k)
	// Route over a random subset of the parts, so some stay empty.
	live := 1 + rng.Intn(k)
	for id := 1; id <= n; id++ {
		s := rng.Intn(live)
		if k > 1 && rng.Float64() < moved {
			s = (s + 1 + rng.Intn(k-1)) % k
		}
		parts[s] = append(parts[s], mergeRecord(rng, id))
	}
	return parts
}

// TestMergeByIDMatchesSort: on random partitions of 1..n — empty parts,
// one part, completion-ordered parts, and records away from their
// assigned part — MergeByID returns the sort-based reference's global
// slice and leaves every part equal to its sorted reference.
func TestMergeByIDMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct {
		n, k  int
		moved float64
	}
	shapes := []shape{
		{1, 1, 0}, {7, 1, 0}, {300, 1, 0},
		{1, 5, 0}, {40, 40, 0}, {200, 3, 0}, {500, 17, 0},
		{200, 3, 0.2}, {500, 17, 0.5}, {1000, 40, 0.05},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, shape{1 + rng.Intn(800), 1 + rng.Intn(30), rng.Float64() * 0.3})
	}
	for _, sh := range shapes {
		for _, ordered := range []bool{false, true} {
			parts := randomPartition(rng, sh.n, sh.k, sh.moved)
			if ordered {
				completionOrder(parts)
			}
			want := clonePartition(parts)
			wantAll := sortMerge(want)
			got, err := MergeByID(parts)
			if err != nil {
				t.Fatalf("n=%d k=%d moved=%.2f: %v", sh.n, sh.k, sh.moved, err)
			}
			if !reflect.DeepEqual(got, wantAll) {
				t.Fatalf("n=%d k=%d moved=%.2f: global slice differs from the sorted reference", sh.n, sh.k, sh.moved)
			}
			for s := range parts {
				if !reflect.DeepEqual(parts[s], want[s]) {
					t.Fatalf("n=%d k=%d moved=%.2f: part %d differs from its sorted reference", sh.n, sh.k, sh.moved, s)
				}
			}
		}
	}
}

// TestMergeByIDEmpty: no parts, or only empty ones, merge to nothing.
func TestMergeByIDEmpty(t *testing.T) {
	for _, parts := range [][][]Record{nil, {}, {nil, {}, nil}} {
		got, err := MergeByID(parts)
		if err != nil || got != nil {
			t.Errorf("MergeByID(%v) = %v, %v; want nil, nil", parts, got, err)
		}
	}
}

// TestMergeByIDRejectsBadIDs: the record count alone cannot tell a
// complete run from one with a duplicated and a missing ID. The merge
// rejects a second record for an ID, an ID past n (a gap in 1..n with
// the count intact) and ID 0, names the ID and the server that pushed
// it, and leaves the parts as they were.
func TestMergeByIDRejectsBadIDs(t *testing.T) {
	ids := func(xs ...uint64) []Record {
		out := make([]Record, len(xs))
		for i, x := range xs {
			out[i] = Record{ID: x, MemMB: int(x)}
		}
		return out
	}
	cases := []struct {
		name  string
		parts [][]Record
		want  []string
	}{
		{"duplicate", [][]Record{ids(3, 1), nil, ids(2, 3)}, []string{"record ID 3 from server 2", "already came from server 0"}},
		{"gap", [][]Record{ids(2), ids(1, 4)}, []string{"record ID 4 from server 1", "outside [1, 3]"}},
		{"zero", [][]Record{ids(1, 2), nil, nil, ids(0)}, []string{"record ID 0 from server 3", "outside [1, 3]"}},
		{"far out of range", [][]Record{ids(1<<63, 1)}, []string{fmt.Sprintf("record ID %d from server 0", uint64(1<<63))}},
	}
	for _, tc := range cases {
		before := clonePartition(tc.parts)
		got, err := MergeByID(tc.parts)
		if err == nil {
			t.Errorf("%s: merged %d records, want an error", tc.name, len(got))
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not say %q", tc.name, err, w)
			}
		}
		if !reflect.DeepEqual(tc.parts, before) {
			t.Errorf("%s: a rejected merge rewrote the parts", tc.name)
		}
	}
}
