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

// storesOf pushes each part into a store of its own, in the part's order,
// the way a server's sink receives its records. A nil part stays a nil
// store.
func storesOf(parts [][]Record) []*Store {
	stores := make([]*Store, len(parts))
	for s, p := range parts {
		if p == nil {
			continue
		}
		stores[s] = &Store{}
		for _, r := range p {
			stores[s].Push(r)
		}
	}
	return stores
}

// contents flattens every store, so a test can tell whether a merge
// changed one.
func contents(stores []*Store) [][]Record {
	out := make([][]Record, len(stores))
	for s, st := range stores {
		if st != nil {
			out[s] = st.Flatten()
		}
	}
	return out
}

// checkMerge merges parts and checks the result against the sort-based
// reference: the global slice, every server's slice (nil where the part
// was empty) and every server's capacity cap.
func checkMerge(t *testing.T, name string, parts [][]Record) {
	t.Helper()
	want := clonePartition(parts)
	wantAll := sortMerge(want)
	got, per, err := MergeByID(storesOf(parts))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, wantAll) {
		t.Fatalf("%s: global slice differs from the sorted reference", name)
	}
	if len(per) != len(parts) {
		t.Fatalf("%s: %d server slices for %d stores", name, len(per), len(parts))
	}
	for s := range parts {
		if len(want[s]) == 0 {
			want[s] = nil
		}
		if !reflect.DeepEqual(per[s], want[s]) {
			t.Fatalf("%s: server %d differs from its sorted reference", name, s)
		}
		if cap(per[s]) != len(per[s]) {
			t.Fatalf("%s: server %d has capacity %d for %d records", name, s, cap(per[s]), len(per[s]))
		}
	}
}

// TestMergeByIDMatchesSort: on random partitions of 1..n — empty parts,
// one part, completion-ordered parts, and records away from their
// assigned part — MergeByID returns the sort-based reference's global
// slice and gives every server its sorted reference.
func TestMergeByIDMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct {
		n, k  int
		moved float64
	}
	shapes := []shape{
		{1, 1, 0}, {7, 1, 0}, {300, 1, 0}, {5000, 1, 0},
		{1, 5, 0}, {40, 40, 0}, {200, 3, 0}, {500, 17, 0},
		{200, 3, 0.2}, {500, 17, 0.5}, {1000, 40, 0.05}, {9000, 4, 0.1},
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
			checkMerge(t, fmt.Sprintf("n=%d k=%d moved=%.2f ordered=%v", sh.n, sh.k, sh.moved, ordered), parts)
		}
	}
}

// TestMergeByIDEmpty: no stores, or only nil and empty ones, merge to no
// records and one nil slice per store.
func TestMergeByIDEmpty(t *testing.T) {
	for _, stores := range [][]*Store{nil, {}, {nil, {}, nil}} {
		got, per, err := MergeByID(stores)
		if err != nil || got != nil || len(per) != len(stores) {
			t.Errorf("MergeByID(%d stores) = %v, %d slices, %v; want nil, %d, nil", len(stores), got, len(per), err, len(stores))
		}
		for s, p := range per {
			if p != nil {
				t.Errorf("store %d: got %v, want nil", s, p)
			}
		}
	}
}

// TestMergeByIDRejectsBadIDs: the record count alone cannot tell a
// complete run from one with a duplicated and a missing ID. The merge
// rejects a second record for an ID, an ID past n (a gap in 1..n with
// the count intact) and ID 0, names the ID and the server that pushed
// it, and leaves the stores as they were.
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
		stores := storesOf(tc.parts)
		before := contents(stores)
		got, per, err := MergeByID(stores)
		if err == nil {
			t.Errorf("%s: merged %d records into %d servers, want an error", tc.name, len(got), len(per))
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not say %q", tc.name, err, w)
			}
		}
		if !reflect.DeepEqual(contents(stores), before) {
			t.Errorf("%s: a rejected merge changed the stores", tc.name)
		}
	}
}

// TestMergeByIDCapsServerSlices: the servers' slices share one backing
// array, so each is capped at its length. Appending to one server's
// records must reallocate, not overwrite a later server's records, and a
// server that kept no records gets a nil slice.
func TestMergeByIDCapsServerSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	parts := randomPartition(rng, 600, 6, 0.3)
	parts[2] = nil // a server that kept no records
	ids := uint64(0)
	for _, p := range parts {
		for i := range p {
			ids++
			p[i].ID = ids
		}
	}
	_, per, err := MergeByID(storesOf(parts))
	if err != nil {
		t.Fatal(err)
	}
	if per[2] != nil {
		t.Fatalf("server 2 kept no records but got %d", len(per[2]))
	}
	want := clonePartition(per)
	for s := range per {
		per[s] = append(per[s], Record{ID: 1 << 40, Label: "appended"})
		for o := s + 1; o < len(per); o++ {
			if !reflect.DeepEqual(per[o], want[o]) {
				t.Fatalf("appending to server %d changed server %d", s, o)
			}
		}
	}
}

// FuzzMergeByID checks MergeByID against the sort-based reference on
// byte-scripted partitions. data[0] picks the server count k (1..64);
// every later byte b is one record, ID 1 + its position, routed to server
// b % k. A byte of 0xFC..0xFF also corrupts its record's ID: 0xFC
// repeats the previous ID (ID 0 for the first record), 0xFD puts it past
// n, 0xFE makes it 0 and 0xFF makes it 2^63 + its position. A corrupted
// script must fail, naming an ID and a server, and leave the stores
// unchanged; any other must match the reference.
func FuzzMergeByID(f *testing.F) {
	// The shapes TestMergeByIDMatchesSort starts from: one record on one
	// server, seven on one, one of five servers used, three servers.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{4, 3})
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 2, 1, 0, 0})
	f.Add([]byte{39, 5, 17, 38, 0, 21, 21, 9, 33, 2, 14, 27})
	// TestMergeByIDRejectsBadIDs' cases: a duplicate, an ID past n, ID 0
	// and a far out-of-range ID.
	f.Add([]byte{2, 0, 1, 2, 0xFC})
	f.Add([]byte{1, 1, 0, 0xFD})
	f.Add([]byte{3, 0, 0, 0xFE})
	f.Add([]byte{0, 0xFF, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0]%64)
		script := data[1:]
		n := len(script)
		rng := rand.New(rand.NewSource(int64(n)))
		parts := make([][]Record, k)
		corrupt := false
		for i, b := range script {
			r := mergeRecord(rng, i+1)
			switch b {
			case 0xFC:
				r.ID = uint64(i)
			case 0xFD:
				r.ID = uint64(n + 1 + i)
			case 0xFE:
				r.ID = 0
			case 0xFF:
				r.ID = 1<<63 + uint64(i)
			}
			corrupt = corrupt || b >= 0xFC
			s := int(b) % k
			parts[s] = append(parts[s], r)
		}
		completionOrder(parts)
		if !corrupt {
			checkMerge(t, "script", parts)
			return
		}
		stores := storesOf(parts)
		before := contents(stores)
		if _, _, err := MergeByID(stores); err == nil {
			t.Fatal("a corrupted script merged")
		} else if !strings.Contains(err.Error(), "record ID ") || !strings.Contains(err.Error(), " from server ") {
			t.Fatalf("error %q names no ID and server", err)
		}
		if !reflect.DeepEqual(contents(stores), before) {
			t.Fatal("a rejected merge changed the stores")
		}
	})
}
