package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sortMerge is the sort-based merge the slot writes replaced, kept as the
// reference: sort each part by ID, concatenate the parts in index order,
// sort the whole by ID.
func sortMerge(parts [][]Record) []Record {
	var all []Record
	for _, p := range parts {
		p = append([]Record(nil), p...)
		sort.Slice(p, func(a, b int) bool { return p[a].ID < p[b].ID })
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// slotRecord synthesizes a record whose every field is distinct per ID,
// so a misplaced or duplicated record cannot compare equal.
func slotRecord(rng *rand.Rand, id int) Record {
	arrival := time.Duration(rng.Int63n(int64(time.Minute)))
	return Record{
		ID:          uint64(id),
		FibN:        rng.Int31n(50),
		Arrival:     arrival,
		FirstRun:    arrival + time.Duration(rng.Int63n(int64(time.Second))),
		Finish:      arrival + time.Duration(id)*time.Millisecond + time.Second,
		CPU:         time.Duration(id) * time.Microsecond,
		Preemptions: rng.Int31n(4),
		MemMB:       128 << rng.Intn(4),
		Failed:      rng.Intn(20) == 0,
		Attempts:    rng.Int31n(3),
		Wasted:      time.Duration(rng.Intn(3)) * time.Millisecond,
		VM:          rng.Int31n(3),
	}
}

// completionOrder reorders each part the way a server pushes records:
// by finish instant, not by ID.
func completionOrder(parts [][]Record) {
	for _, p := range parts {
		sort.SliceStable(p, func(a, b int) bool { return p[a].Finish < p[b].Finish })
	}
}

// slotRun is one scripted use of a Slots. IDs 1..len(assign) are routed
// in order, ID k+1 to server assign[k], and each ID's block is handed to
// the view of that server's shard (server % views). Then every server
// with a part pushes it through its writer, in the part's order, and the
// slots close. block zero means fixed-length slots.
type slotRun struct {
	block  int
	views  int
	assign []int32
	parts  [][]Record
}

func (r slotRun) write() ([]Record, error) {
	var s *Slots
	if r.block == 0 {
		s = NewSlots(len(r.assign))
	} else {
		s = NewBlockSlots(r.block)
	}
	views := make([]*SlotView, r.views)
	for i := range views {
		views[i] = s.View()
	}
	for _, srv := range r.assign {
		views[int(srv)%r.views].Learn(s.Route())
	}
	for srv, p := range r.parts {
		if p == nil {
			continue
		}
		w := views[srv%r.views].Writer(srv)
		for _, rec := range p {
			w.Push(rec)
		}
	}
	return s.Close(r.assign)
}

// routedPartition routes IDs 1..n over k servers; servers past a random
// live count are never routed to and keep a nil part.
func routedPartition(rng *rand.Rand, n, k int) (assign []int32, parts [][]Record) {
	parts = make([][]Record, k)
	live := 1 + rng.Intn(k)
	for id := 1; id <= n; id++ {
		s := rng.Intn(live)
		assign = append(assign, int32(s))
		parts[s] = append(parts[s], slotRecord(rng, id))
	}
	return assign, parts
}

// slotModes are the block sizes the tests write through: fixed-length
// slots, one-ID blocks, small blocks that every part crosses, and the
// engine's block size.
var slotModes = []int{0, 1, 3, 64, SlotBlockSize}

// TestSlotsMatchSort: on random routings of 1..n — empty parts, one
// part, completion-ordered parts, one shard or several — writing every
// record to its slot gives the sort-based reference, in every mode.
func TestSlotsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct{ n, k int }
	shapes := []shape{
		{1, 1}, {7, 1}, {300, 1}, {5000, 1},
		{1, 5}, {40, 40}, {200, 3}, {500, 17}, {1000, 40}, {9000, 4},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, shape{1 + rng.Intn(800), 1 + rng.Intn(30)})
	}
	for _, sh := range shapes {
		for _, ordered := range []bool{false, true} {
			assign, parts := routedPartition(rng, sh.n, sh.k)
			if ordered {
				completionOrder(parts)
			}
			want := sortMerge(parts)
			for _, block := range slotModes {
				run := slotRun{block: block, views: 1 + rng.Intn(4), assign: assign, parts: parts}
				got, err := run.write()
				if err != nil {
					t.Fatalf("n=%d k=%d block=%d views=%d: %v", sh.n, sh.k, block, run.views, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d block=%d views=%d ordered=%v: records differ from the sorted reference",
						sh.n, sh.k, block, run.views, ordered)
				}
			}
		}
	}
}

// TestSlotsEmpty: block slots that routed nothing close to no records,
// whatever views and writers were made.
func TestSlotsEmpty(t *testing.T) {
	s := NewBlockSlots(4)
	s.View().Writer(0)
	s.View()
	if got, err := s.Close(nil); got != nil || err != nil {
		t.Errorf("empty slots closed to %v, %v; want nil, nil", got, err)
	}
}

// TestSlotsRejectBadIDs: the record count alone cannot tell a complete
// run from one with a duplicated and a missing ID. Each bad record is
// rejected with an error naming its ID and the server that pushed it,
// an empty slot with its ID and the server it was routed to, in both
// modes.
func TestSlotsRejectBadIDs(t *testing.T) {
	ids := func(xs ...uint64) []Record {
		out := make([]Record, len(xs))
		for i, x := range xs {
			out[i] = Record{ID: x, MemMB: int32(x)}
		}
		return out
	}
	cases := []struct {
		name   string
		assign []int32
		parts  [][]Record
		want   map[int][]string // by block size; -1 for every mode
	}{
		{"duplicate", []int32{0, 2, 0}, [][]Record{ids(3, 1), nil, ids(2, 3)},
			map[int][]string{-1: {"record ID 3 from server 2 already written"}}},
		{"gap", []int32{1, 0, 1}, [][]Record{ids(2), ids(1, 4)},
			map[int][]string{0: {"record ID 4 from server 1 outside [1, 3]"}, 3: {"record ID 4 from server 1 outside the IDs routed to its shard"}, 4: {"record ID 4 from server 1 outside [1, 3]"}}},
		{"zero", []int32{0, 0, 3}, [][]Record{ids(1, 2), nil, nil, ids(0)},
			map[int][]string{0: {"record ID 0 from server 3 outside [1, 3]"}, 3: {"record ID 0 from server 3 outside the IDs routed"}, 4: {"record ID 0 from server 3 outside the IDs routed"}}},
		{"far out of range", []int32{0}, [][]Record{ids(1<<63, 1)},
			map[int][]string{-1: {fmt.Sprintf("record ID %d from server 0 outside", uint64(1<<63))}}},
		{"missing", []int32{0, 1, 1}, [][]Record{ids(1), ids(3)},
			map[int][]string{-1: {"record ID 2 routed to server 1 was never written"}}},
		{"another shard's block", []int32{0, 0, 0, 1}, [][]Record{ids(1, 2, 3), ids(4, 1)},
			map[int][]string{0: {"record ID 1 from server 1 already written"}, 3: {"record ID 1 from server 1 outside the IDs routed to its shard"}, 4: {"record ID 1 from server 1 already written"}}},
	}
	for _, tc := range cases {
		for _, block := range []int{0, 3, 4} {
			want := tc.want[-1]
			if w, ok := tc.want[block]; ok {
				want = w
			}
			got, err := slotRun{block: block, views: 2, assign: tc.assign, parts: tc.parts}.write()
			if err == nil {
				t.Errorf("%s, block %d: wrote %d records, want an error", tc.name, block, len(got))
				continue
			}
			for _, w := range want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s, block %d: error %q does not say %q", tc.name, block, err, w)
				}
			}
		}
	}

	// A fixed length the router does not reach is an error too.
	s := NewSlots(3)
	w := s.View().Writer(0)
	for id := uint64(1); id <= 2; id++ {
		s.Route()
		w.Push(Record{ID: id})
	}
	if _, err := s.Close([]int32{0, 0}); err == nil || !strings.Contains(err.Error(), "2 invocations routed to 3 record slots") {
		t.Errorf("short routing closed with %v", err)
	}
}

// slotErr parses the errors Slots reports.
var slotErr = regexp.MustCompile(`record ID (\d+) (?:from server (\d+) (outside \[1, (\d+)\]|outside the IDs routed to its shard|already written)|routed to server (-?\d+) was never written)`)

// FuzzSlots checks slot writes against the sort-based reference on
// byte-scripted routings. data[0] picks the server count k (1..64) from
// its low six bits and the mode from its top two: fixed-length slots or
// blocks of 1, 3 or 64 IDs; servers spread over 1 + k%4 shard views.
// Every later byte b is one record, ID 1 + its position, routed to and
// pushed by server b % k. A byte of 0xFC..0xFF also corrupts its
// record's ID: 0xFC repeats the previous ID (ID 0 for the first record),
// 0xFD puts it past n, 0xFE makes it 0 and 0xFF makes it 2^63 + its
// position. An intact script must give the reference's records. A
// corrupted one must fail with the kind of error the reference finds for
// the ID it names: outside the routed range (or the blocks the server's
// shard learned), written twice, or never written, with the right server.
func FuzzSlots(f *testing.F) {
	// The shapes TestSlotsMatchSort starts from: one record on one
	// server, seven on one, one of five servers used, three servers.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{4, 3})
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 2, 1, 0, 0})
	f.Add([]byte{39, 5, 17, 38, 0, 21, 21, 9, 33, 2, 14, 27})
	// TestSlotsRejectBadIDs' cases: a duplicate, an ID past n, ID 0 and a
	// far out-of-range ID.
	f.Add([]byte{2, 0, 1, 2, 0xFC})
	f.Add([]byte{1, 1, 0, 0xFD})
	f.Add([]byte{3, 0, 0, 0xFE})
	f.Add([]byte{0, 0xFF, 0})
	// The same in block mode, across block boundaries and shards.
	f.Add([]byte{0x42, 0, 1, 2, 0, 1, 2, 2, 1, 0, 0})
	f.Add([]byte{0x83, 0, 1, 2, 3, 0xFC, 1, 2})
	f.Add([]byte{0xC5, 0, 1, 2, 3, 4, 5, 0xFD, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0]%64)
		block := [...]int{0, 1, 3, 64}[data[0]>>6]
		script := data[1:]
		n := len(script)
		rng := rand.New(rand.NewSource(int64(n)))
		run := slotRun{block: block, views: 1 + k%4, parts: make([][]Record, k)}
		for i, b := range script {
			r := slotRecord(rng, i+1)
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
			s := int(b) % k
			run.assign = append(run.assign, int32(s))
			run.parts[s] = append(run.parts[s], r)
		}
		completionOrder(run.parts)
		want := sortMerge(run.parts)
		intact := len(want) == n
		for i := 0; intact && i < n; i++ {
			intact = want[i].ID == uint64(i+1)
		}
		got, err := run.write()
		if intact {
			if err != nil {
				t.Fatalf("an intact script failed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("records differ from the sorted reference")
			}
			return
		}
		if err == nil {
			t.Fatal("a corrupted script closed without an error")
		}
		m := slotErr.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("error %q names no ID and server", err)
		}
		id, _ := strconv.ParseUint(m[1], 10, 64)
		count := 0
		for _, r := range want {
			if r.ID == id {
				count++
			}
		}
		inRange := id >= 1 && id <= uint64(n)
		if m[5] != "" {
			routedTo := -1
			if inRange {
				routedTo = int(run.assign[id-1])
			}
			if srv, _ := strconv.Atoi(m[5]); count != 0 || srv != routedTo {
				t.Fatalf("%q: the reference holds ID %d %d times, routed to server %d", err, id, count, routedTo)
			}
			return
		}
		srv, _ := strconv.Atoi(m[2])
		pushed := false
		for _, r := range run.parts[srv] {
			pushed = pushed || r.ID == id
		}
		if !pushed {
			t.Fatalf("%q: server %d pushed no record ID %d", err, srv, id)
		}
		switch {
		case m[3] == "already written":
			if count < 2 {
				t.Fatalf("%q: the reference holds ID %d %d times", err, id, count)
			}
		case m[4] != "":
			if bound, _ := strconv.Atoi(m[4]); inRange || bound != n {
				t.Fatalf("%q: ID %d is within [1, %d]", err, id, n)
			}
		default:
			// Outside the blocks the server's shard learned: out of range,
			// or in a block routed only to other shards.
			learned := false
			for j, s := range run.assign {
				learned = learned || (int(s)%run.views == srv%run.views && inRange && (j/block) == int(id-1)/block)
			}
			if learned {
				t.Fatalf("%q: server %d's shard learned ID %d's block", err, srv, id)
			}
		}
	})
}
