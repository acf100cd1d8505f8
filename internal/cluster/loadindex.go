// Fleet load index: sub-linear dispatch over the causal lane model
// (DESIGN.md §12). Every dispatch policy used to scan all servers per
// arrival; at 10k servers that O(servers) scan makes the single-threaded
// router the replay bottleneck. The index keeps the same answers —
// bit-for-bit, including tie-breaks — in O(cores·log busy servers) per
// pick.
//
// Key insight: a server's Outstanding(s, now) = Σ(free−now | free>now)
// decays linearly in now with slope −busy(s), so a single ordering over
// all servers is not time-invariant. But *within the set of servers
// sharing one busy-lane count b*, Outstanding(s, now) = sumFree(s) − b·now
// is a constant shift of sumFree(s): the (sumFree, index) order never
// changes between events. So the index buckets servers by busy count
// and keeps one tournament tree per busy bucket (1..cores) keyed by
// (sumFree, server index). Bucket 0 needs no order at all: an idle
// server's sumFree is 0, so its load is 0, below every busy server's,
// and the least-loaded pick is the lowest idle index whenever one
// exists. Bucket 0 is therefore a bitset, and servers that never
// received work cost one bit each. A pick with no idle server reads the
// cores busy roots and compares their loads at now — lexicographic
// (load, index), identical to the linear first-minimum scan — and only
// such a pick needs the busy trees current, so while idle servers
// answer the picks, tree insertions wait in a queue. Loads
// change only at assign instants and at booked lane-finish instants, so
// updates are event-driven: Assign adjusts the chosen server's bucket
// directly, and lane expiries sit in a lazy min-heap drained by
// advance(now) before every indexed read. A second tree over
// (idleSince, index), built on the first join-idle-queue read, answers
// that policy's longest-idle-first pick.
package cluster

import (
	"math"
	"math/bits"
	"time"
)

// treeAbsent marks an empty leaf. Real keys are lane-free sums or
// instants (non-negative, bounded by the simulated horizon), so MaxInt64
// is unreachable.
const treeAbsent = int64(math.MaxInt64)

// minTree is a fixed-shape tournament (segment) tree over int64 keys with
// server-index tie-break: min() returns the leaf with the lexicographically
// smallest (key, index). Leaves grow on demand by capacity doubling, so a
// busy bucket's tree spans only up to its highest-indexed member.
type minTree struct {
	n    int        // leaf capacity, power of two (0 until first set)
	node []treeNode // [2n]; node[n+i] is leaf i, internal nodes hold the winner
}

// treeNode is one (key, server index) pair; the two share a cache line.
type treeNode struct {
	key int64
	idx int32
}

// less orders nodes lexicographically by (key, index).
func (a treeNode) less(b treeNode) bool {
	return a.key < b.key || (a.key == b.key && a.idx < b.idx)
}

func (t *minTree) ensure(cap int) {
	if cap <= t.n {
		return
	}
	n := max(t.n, 1)
	for n < cap {
		n <<= 1
	}
	node := make([]treeNode, 2*n)
	for i := range node {
		node[i].key = treeAbsent
	}
	copy(node[n:], t.node[t.n:])
	t.n, t.node = n, node
	t.rebuild()
}

// rebuild recomputes every internal node from the leaves.
func (t *minTree) rebuild() {
	for i := t.n - 1; i >= 1; i-- {
		t.node[i] = winner(t.node[2*i], t.node[2*i+1])
	}
}

func winner(a, b treeNode) treeNode {
	if b.less(a) {
		return b
	}
	return a
}

// update sets leaf i and replays the tournament up its path, stopping
// at the first node whose winner did not change: every node above it is
// unchanged too.
func (t *minTree) update(i int, key int64) {
	t.ensure(i + 1)
	p := t.n + i
	t.node[p] = treeNode{key, int32(i)}
	for p >>= 1; p >= 1; p >>= 1 {
		w := winner(t.node[2*p], t.node[2*p+1])
		if w == t.node[p] {
			return
		}
		t.node[p] = w
	}
}

func (t *minTree) remove(i int) {
	if i < t.n && t.node[t.n+i].key != treeAbsent {
		t.update(i, treeAbsent)
	}
}

func (t *minTree) min() (int, int64, bool) {
	if t.n == 0 || t.node[1].key == treeAbsent {
		return -1, 0, false
	}
	return int(t.node[1].idx), t.node[1].key, true
}

// laneExpiry is one pending "booked lane frees at `at`" event. An entry
// is live while its lane still frees at `at`: lanes only extend, so a
// re-booking that moves the lane past `at` turns the entry stale
// (skipped on pop), and a zero-demand re-booking that leaves the lane
// where it was pushes no second entry.
type laneExpiry struct {
	at     time.Duration
	server int32
	lane   int32
}

type expiryHeap []laneExpiry

func (h *expiryHeap) push(e laneExpiry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *expiryHeap) pop() laneExpiry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].at < s[m].at {
			m = l
		}
		if r < len(s) && s[r].at < s[m].at {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// serverSet is a set of server indices: a bitset with one summary bit
// per word, so its lowest member is found in O(servers/4096) word reads.
type serverSet struct {
	words   []uint64
	summary []uint64 // bit w set iff words[w] != 0
}

// grow makes room for servers [0, n).
func (b *serverSet) grow(n int) {
	if w := (n + 63) >> 6; w > len(b.words) {
		b.words = append(b.words, make([]uint64, w-len(b.words))...)
		if sw := (w + 63) >> 6; sw > len(b.summary) {
			b.summary = append(b.summary, make([]uint64, sw-len(b.summary))...)
		}
	}
}

func (b *serverSet) has(s int) bool { return b.words[s>>6]&(1<<(uint(s)&63)) != 0 }

func (b *serverSet) add(s int) {
	w := s >> 6
	b.words[w] |= 1 << (uint(s) & 63)
	b.summary[w>>6] |= 1 << (uint(w) & 63)
}

func (b *serverSet) remove(s int) {
	w := s >> 6
	if b.words[w] &^= 1 << (uint(s) & 63); b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// first returns the lowest member.
func (b *serverSet) first() (int, bool) {
	for i, sw := range b.summary {
		if sw != 0 {
			w := i<<6 + bits.TrailingZeros64(sw)
			return w<<6 + bits.TrailingZeros64(b.words[w]), true
		}
	}
	return -1, false
}

// loadIndex mirrors the FleetModel's per-server load as of `now`, the
// high-water mark of indexed reads and assigns. It assumes the
// non-decreasing decision times the routing loops guarantee; calls with
// an earlier instant never rewind it (the linear fallbacks stay exact
// for any caller the index cannot serve). It reads the model's lanes and
// eligible set rather than copying them.
type loadIndex struct {
	model *FleetModel
	now   time.Duration

	// load holds each server's busy lanes and their free sum, in pages
	// allocated at a server's first busy lane.
	load pages[serverLoad]

	eligBusy int64 // Σ busy over eligible servers (autoscaler signal)

	expiries expiryHeap
	idle0    serverSet // bucket 0: eligible servers with busy == 0
	byBusy   []minTree // [busy count] -> eligible servers keyed (sumFree, index); [0] unused
	idle     *minTree  // idle0's members keyed (idleSince, index); nil until longestIdle

	// The busy trees are read only when no eligible server is idle.
	// After a pick that an idle server answered, the index turns lazy:
	// a server leaving a bucket still leaves that bucket's tree, but
	// entering a tree or re-keying in one waits, with the server queued
	// in stale (once, guarded by queued). So a tree holds a server only
	// in the server's current bucket, possibly under an old key. The
	// next pick that needs the trees re-keys the queued servers and
	// turns the index eager again: a busy fleet pays for each change
	// once, and an idle one never touches its trees.
	lazy   bool
	stale  []int32
	queued serverSet
}

// serverLoad is one server's entry in the index.
type serverLoad struct {
	sumFree time.Duration // Σ lane free over busy lanes; 0 when busy is 0
	busy    int32         // lanes with free > now
}

// buildLoadIndex materializes an index over m's lane model as of `now`.
// The lane state fully determines the index — busy lanes are those
// freeing after now, sumFree is their sum — so the build is exact no
// matter how much routing preceded it. FleetModel builds lazily on the
// first indexed read: fleets whose dispatch policy and autoscaler never
// consult the index skip its per-booking maintenance entirely.
func buildLoadIndex(m *FleetModel, now time.Duration) *loadIndex {
	n := m.servers
	ix := &loadIndex{
		model:  m,
		now:    now,
		load:   newPages[serverLoad](n),
		byBusy: make([]minTree, m.cores+1),
		lazy:   true,
	}
	ix.idle0.grow(n)
	ix.queued.grow(n)
	for s := range n {
		for l, free := range m.laneFree(s) {
			if free > now {
				ld := ix.load.at(s)
				ld.busy++
				ld.sumFree += free
				ix.expiries.push(laneExpiry{at: free, server: int32(s), lane: int32(l)})
			}
		}
		if m.eligible(s) {
			ix.eligBusy += int64(ix.load.get(s).busy)
			ix.place(s)
		}
	}
	return ix
}

// addServer extends the index to the model's newest server, whose lanes
// all free at readyAt; it is ineligible until setEligible opts it in.
func (ix *loadIndex) addServer(readyAt time.Duration) {
	s := ix.model.servers - 1
	ix.load.grow(s + 1)
	ix.idle0.grow(s + 1)
	ix.queued.grow(s + 1)
	if readyAt > ix.now {
		// Spinning up: every lane is "busy" until readyAt.
		*ix.load.at(s) = serverLoad{sumFree: time.Duration(ix.model.cores) * readyAt, busy: int32(ix.model.cores)}
		for l := 0; l < ix.model.cores; l++ {
			ix.expiries.push(laneExpiry{at: readyAt, server: int32(s), lane: int32(l)})
		}
	}
}

// place puts eligible server s into the bucket of its busy count, or,
// while the index is lazy and s is busy, queues it for that.
func (ix *loadIndex) place(s int) {
	ld := ix.load.get(s)
	switch b := ld.busy; {
	case b == 0:
		ix.idle0.add(s)
		if ix.idle != nil {
			ix.idle.update(s, int64(ix.idleSince(s)))
		}
	case !ix.lazy:
		ix.byBusy[b].update(s, int64(ld.sumFree))
	case !ix.queued.has(s):
		ix.queued.add(s)
		ix.stale = append(ix.stale, int32(s))
	}
}

// unplace takes eligible server s out of bucket b. Taking a server out
// of a tree that does not hold it costs a leaf read.
func (ix *loadIndex) unplace(s, b int) {
	if b > 0 {
		ix.byBusy[b].remove(s)
		return
	}
	ix.idle0.remove(s)
	if ix.idle != nil {
		ix.idle.remove(s)
	}
}

// eager puts every queued server that is still eligible and busy into
// its bucket's tree under its current key, and turns the index eager.
func (ix *loadIndex) eager() {
	for _, s32 := range ix.stale {
		s := int(s32)
		ix.queued.remove(s)
		if ld := ix.load.get(s); ld.busy > 0 && ix.model.eligible(s) {
			ix.byBusy[ld.busy].update(s, int64(ld.sumFree))
		}
	}
	ix.stale = ix.stale[:0]
	ix.lazy = false
}

// setEligible places server s into its bucket or takes it out, after the
// model flipped its eligibility. The indexed fast path answers picks
// over exactly the eligible servers, so callers must keep that set equal
// to the candidate slice they pass to Pick (the routing loops and the
// autoscaler do; anyone else gets the linear fallback via the
// candidate-count check).
func (ix *loadIndex) setEligible(s int, on bool) {
	b := int(ix.load.get(s).busy)
	if on {
		ix.eligBusy += int64(b)
		ix.place(s)
	} else {
		ix.eligBusy -= int64(b)
		ix.unplace(s, b)
	}
}

// advance drains lane expiries up to and including t, moving servers
// whose lanes freed into lower busy buckets. It never rewinds. Callers
// advance before they change a lane, so every live entry still matches
// its lane.
func (ix *loadIndex) advance(t time.Duration) {
	if t < ix.now {
		return
	}
	ix.now = t
	for len(ix.expiries) > 0 && ix.expiries[0].at <= t {
		e := ix.expiries.pop()
		s := int(e.server)
		if ix.model.laneFree(s)[e.lane] != e.at {
			continue // lane re-booked past e.at; a fresher entry supersedes this one
		}
		ld := ix.load.at(s)
		b := int(ld.busy)
		ld.busy--
		ld.sumFree -= e.at
		if ix.model.eligible(s) {
			ix.eligBusy--
			ix.unplace(s, b)
			ix.place(s)
		}
	}
}

// assigned records a booking that moved server s's lane from oldFree to
// newFree, after the caller advanced the index to the decision instant.
// Callers (AssignDemand) hold the lane-model invariant newFree >= oldFree.
func (ix *loadIndex) assigned(s, lane int, oldFree, newFree time.Duration) {
	wasBusy := oldFree > ix.now
	isBusy := newFree > ix.now
	oldB := int(ix.load.get(s).busy)
	elig := ix.model.eligible(s)
	switch {
	case wasBusy: // lanes only extend, so wasBusy implies isBusy
		ix.load.at(s).sumFree += newFree - oldFree
	case isBusy:
		ld := ix.load.at(s)
		ld.busy++
		ld.sumFree += newFree
		if elig {
			ix.eligBusy++
		}
	}
	if isBusy && newFree != oldFree {
		ix.expiries.push(laneExpiry{at: newFree, server: int32(s), lane: int32(lane)})
	}
	if !elig {
		return
	}
	if int(ix.load.get(s).busy) != oldB {
		ix.unplace(s, oldB)
	}
	// Re-place s even in its old bucket: its sumFree moved, or, after a
	// zero-demand booking on an idle server, its idleSince did.
	ix.place(s)
}

// usable advances the index to now and reports whether it can answer a
// pick for this candidate slice: the routing loops always pass exactly
// the eligible set (in ascending order), so a length match means the
// slices are the same set. Any other caller falls back to the linear
// scans, which are exact for arbitrary subsets.
func (ix *loadIndex) usable(nCandidates int, now time.Duration) bool {
	ix.advance(now)
	return nCandidates == ix.model.eligN && nCandidates > 0
}

// leastLoaded returns the eligible server minimizing
// (Outstanding(s, now), s) — the same winner as the linear first-minimum
// scan. An idle server's load is 0 and a busy one's is positive, so the
// lowest idle server wins whenever there is one. Otherwise, within a
// busy bucket load is a constant shift of the tree key, so each root is
// that bucket's winner, and the roots' loads are compared at now.
func (ix *loadIndex) leastLoaded() (int, bool) {
	if s, ok := ix.idle0.first(); ok {
		ix.lazy = true
		return s, true
	}
	if ix.lazy {
		ix.eager()
	}
	best, bestLoad, found := -1, int64(0), false
	for b := 1; b < len(ix.byBusy); b++ {
		s, key, ok := ix.byBusy[b].min()
		if !ok {
			continue
		}
		load := key - int64(b)*int64(ix.now)
		if !found || load < bestLoad || (load == bestLoad && s < best) {
			best, bestLoad, found = s, load, true
		}
	}
	return best, found
}

// longestIdle returns the eligible idle server minimizing (idleSince, s),
// or ok=false when no eligible server is idle. The first call builds the
// idleSince tree from bucket 0, so only join-idle-queue fleets keep it.
func (ix *loadIndex) longestIdle() (int, bool) {
	if ix.idle == nil {
		t := &minTree{}
		t.ensure(ix.model.servers)
		for w, word := range ix.idle0.words {
			for ; word != 0; word &= word - 1 {
				s := w<<6 + bits.TrailingZeros64(word)
				t.node[t.n+s] = treeNode{int64(ix.idleSince(s)), int32(s)}
			}
		}
		t.rebuild()
		ix.idle = t
	}
	s, _, ok := ix.idle.min()
	return s, ok
}

// idleSince is the instant idle server s's last lane freed: its latest
// lane, since lanes only extend.
func (ix *loadIndex) idleSince(s int) time.Duration {
	var last time.Duration
	for _, free := range ix.model.laneFree(s) {
		last = max(last, free)
	}
	return last
}

// loadOf returns Outstanding(s, now) at the index's current instant in
// O(1), for callers that already advanced.
func (ix *loadIndex) loadOf(s int) time.Duration {
	ld := ix.load.get(s)
	return ld.sumFree - time.Duration(ld.busy)*ix.now
}
