// ID slots: exact-record fleets keep one record per routed invocation,
// and record IDs are dense — record ID k is 1 + the invocation's routed
// index — so each record's final position is known the moment it
// retires. Servers write it there at once, record ID k to slot k-1 of the
// array that becomes the fleet's Set. Nothing is merged, sorted or copied
// per server afterwards.

package metrics

import "fmt"

// SlotBlockSize is how many IDs one block of a Slots holds when the
// record count is not known up front: 4,096 records, 384 KB.
const SlotBlockSize = 1 << 12

// Slots is an exact fleet's record array, written in place by ID. Its
// parts live on different goroutines:
//
//   - the router hands out IDs in order (Route), each with the block
//     that holds its slot, and reads the records at the end (Close);
//   - each shard worker owns a SlotView, which learns a block from the
//     first routed ID it is handed in that block, so no goroutine but the
//     router ever reads the router's list of blocks;
//   - each server writes its records through a SlotWriter of its shard's
//     view.
//
// Writes go to distinct slots, so no lock is needed; Close must come
// after every writer has finished.
type Slots struct {
	size   int  // IDs per block
	fixed  bool // the record count is size, known up front: one block
	blocks []*SlotBlock
	routed int
	views  []*SlotView
}

// SlotBlock is one block of a Slots: size consecutive IDs, from
// index·size+1 on.
type SlotBlock struct {
	index int
	recs  []Record
}

// NewSlots returns the slots of a fleet that routes exactly n > 0
// invocations: one array of length n, which Close returns as it is.
func NewSlots(n int) *Slots {
	return &Slots{size: n, fixed: true, blocks: []*SlotBlock{{recs: make([]Record, n)}}}
}

// NewBlockSlots returns the slots of a fleet whose invocation count is
// not known up front: blocks of size IDs, each allocated when the routed
// index first reaches it and joined into one array by Close.
func NewBlockSlots(size int) *Slots { return &Slots{size: size} }

// View returns a new view of s for one goroutine. Make every view before
// the goroutines that use them start. A view of fixed-length slots starts
// out knowing their one block.
func (s *Slots) View() *SlotView {
	v := &SlotView{size: s.size, fixed: s.fixed}
	if s.fixed {
		v.blocks = []*SlotBlock{s.blocks[0]}
	}
	s.views = append(s.views, v)
	return v
}

// Route hands out the next ID, 1 + the number routed so far, and returns
// the block holding its slot. Pass the block to the view of the shard the
// ID is routed to, before that shard can retire the ID's record.
func (s *Slots) Route() *SlotBlock {
	k := s.routed
	s.routed++
	if s.fixed {
		return s.blocks[0]
	}
	b := k / s.size
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, &SlotBlock{index: b, recs: make([]Record, s.size)})
	}
	return s.blocks[b]
}

// Close returns every record, record ID k at index k-1. assign maps each
// routed index to its server; it names the server of an ID no record
// took. It fails on the first record a writer could not place (an ID
// outside the routed range, or one already written), on a routed count
// other than a fixed length, and on an empty slot, each error naming the
// ID and the server.
func (s *Slots) Close(assign []int32) ([]Record, error) {
	for _, v := range s.views {
		for _, w := range v.writers {
			if w.err != nil {
				return nil, w.err
			}
			if w.maxID > uint64(s.routed) {
				return nil, fmt.Errorf("metrics: record ID %d from server %d outside [1, %d]", w.maxID, w.server, s.routed)
			}
		}
	}
	if s.fixed && s.routed != s.size {
		return nil, fmt.Errorf("metrics: %d invocations routed to %d record slots", s.routed, s.size)
	}
	var recs []Record
	if s.fixed {
		recs = s.blocks[0].recs
	} else if s.routed > 0 {
		recs = make([]Record, 0, s.routed)
		for _, b := range s.blocks {
			recs = append(recs, b.recs[:min(s.size, s.routed-len(recs))]...)
		}
	}
	for k := range recs {
		if recs[k].ID == 0 {
			server := -1
			if k < len(assign) {
				server = int(assign[k])
			}
			return nil, fmt.Errorf("metrics: record ID %d routed to server %d was never written", k+1, server)
		}
	}
	return recs, nil
}

// SlotView is one goroutine's view of a Slots: the blocks it has learned,
// and the writers of the servers it runs.
type SlotView struct {
	size    int
	fixed   bool
	blocks  []*SlotBlock // by block index; nil where not learned
	writers []*SlotWriter
}

// Learn makes b writable through v. Learning a block again is a no-op.
func (v *SlotView) Learn(b *SlotBlock) {
	if b.index < len(v.blocks) {
		if v.blocks[b.index] == nil {
			v.blocks[b.index] = b
		}
		return
	}
	for len(v.blocks) < b.index {
		v.blocks = append(v.blocks, nil)
	}
	v.blocks = append(v.blocks, b)
}

// Writer returns the record sink of server, writing through v.
func (v *SlotView) Writer(server int) *SlotWriter {
	w := &SlotWriter{view: v, server: server}
	v.writers = append(v.writers, w)
	return w
}

// SlotWriter is one server's Sink into a fleet's slots: it writes each
// record to the slot of its ID. After its first failure — an ID with no
// learned slot, or a slot already written — it keeps the error for Close
// and writes nothing more.
type SlotWriter struct {
	view   *SlotView
	server int
	maxID  uint64
	err    error
}

// Push implements Sink.
func (w *SlotWriter) Push(r Record) {
	if w.err != nil {
		return
	}
	v := w.view
	var slot *Record
	if k := r.ID - 1; r.ID > 0 {
		if b := k / uint64(v.size); b < uint64(len(v.blocks)) && v.blocks[b] != nil {
			slot = &v.blocks[b].recs[k%uint64(v.size)]
		}
	}
	switch {
	case slot == nil && v.fixed:
		w.err = fmt.Errorf("metrics: record ID %d from server %d outside [1, %d]", r.ID, w.server, v.size)
	case slot == nil:
		w.err = fmt.Errorf("metrics: record ID %d from server %d outside the IDs routed to its shard", r.ID, w.server)
	case slot.ID != 0:
		w.err = fmt.Errorf("metrics: record ID %d from server %d already written", r.ID, w.server)
	default:
		*slot = r
		w.maxID = max(w.maxID, r.ID)
	}
}
