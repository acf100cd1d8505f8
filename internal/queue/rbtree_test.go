package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// insert links a fresh node carrying key and value into tr.
func insert(tr *RBTree, key Key, value any) *Node {
	n := &Node{Key: key, Value: value}
	tr.Insert(n)
	return n
}

func TestRBTreeEmpty(t *testing.T) {
	var tr RBTree
	if tr.Len() != 0 || tr.Min() != nil || tr.Max() != nil {
		t.Fatal("zero tree not empty")
	}
	tr.CheckInvariants()
}

func TestRBTreeInsertMinMax(t *testing.T) {
	var tr RBTree
	keys := []int64{50, 20, 80, 10, 30, 70, 90}
	for i, w := range keys {
		insert(&tr, Key{Weight: w, ID: uint64(i)}, w)
		tr.CheckInvariants()
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	if tr.Min().Key.Weight != 10 {
		t.Errorf("Min = %d, want 10", tr.Min().Key.Weight)
	}
	if tr.Max().Key.Weight != 90 {
		t.Errorf("Max = %d, want 90", tr.Max().Key.Weight)
	}
}

func TestRBTreeDuplicatePanics(t *testing.T) {
	var tr RBTree
	insert(&tr, Key{Weight: 1, ID: 1}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	insert(&tr, Key{Weight: 1, ID: 1}, nil)
}

func TestRBTreeTiebreakByID(t *testing.T) {
	var tr RBTree
	insert(&tr, Key{Weight: 5, ID: 2}, "b")
	insert(&tr, Key{Weight: 5, ID: 1}, "a")
	insert(&tr, Key{Weight: 5, ID: 3}, "c")
	var got []string
	tr.InOrder(func(n *Node) bool {
		got = append(got, n.Value.(string))
		return true
	})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("InOrder = %v, want [a b c]", got)
	}
}

func TestRBTreeDeleteAllPermutations(t *testing.T) {
	// Exhaustively delete in several orders to hit fixup branches.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var tr RBTree
		const n = 40
		nodes := make([]*Node, 0, n)
		for i := 0; i < n; i++ {
			nodes = append(nodes, insert(&tr, Key{Weight: int64(rng.Intn(15)), ID: uint64(i)}, i))
		}
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for i, nd := range nodes {
			tr.Delete(nd)
			tr.CheckInvariants()
			if tr.Len() != n-i-1 {
				t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
			}
		}
		if tr.Min() != nil {
			t.Fatal("tree not empty after deleting all")
		}
	}
}

func TestRBTreeInOrderEarlyStop(t *testing.T) {
	var tr RBTree
	for i := 0; i < 10; i++ {
		insert(&tr, Key{Weight: int64(i), ID: uint64(i)}, i)
	}
	count := 0
	tr.InOrder(func(*Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

// TestRBTreeReinsertIntoSecondTree: a node deleted from one tree carries
// no links into the other, and the tree it left stays intact.
func TestRBTreeReinsertIntoSecondTree(t *testing.T) {
	var a, b RBTree
	nodes := make([]*Node, 0, 20)
	for i := 0; i < 20; i++ {
		nodes = append(nodes, insert(&a, Key{Weight: int64(i * 7 % 11), ID: uint64(i)}, i))
	}
	for i := 0; i < 20; i += 2 {
		a.Delete(nodes[i])
		nodes[i].Key.Weight += 100
		b.Insert(nodes[i])
		a.CheckInvariants()
		b.CheckInvariants()
	}
	if a.Len() != 10 || b.Len() != 10 {
		t.Fatalf("Len = %d/%d, want 10/10", a.Len(), b.Len())
	}
	for tr, odd := range map[*RBTree]int{&a: 1, &b: 0} {
		seen := 0
		tr.InOrder(func(n *Node) bool {
			if n.Value.(int)%2 != odd {
				t.Errorf("node %v in the wrong tree", n.Value)
			}
			seen++
			return true
		})
		if seen != 10 {
			t.Errorf("walk saw %d nodes, want 10", seen)
		}
	}
}

// TestRBTreeReinsertAbandonedNodes: nodes of a tree that is dropped
// without deleting them (a removed runqueue) keep stale links, which
// Insert must overwrite.
func TestRBTreeReinsertAbandonedNodes(t *testing.T) {
	var old RBTree
	nodes := make([]*Node, 0, 30)
	for i := 0; i < 30; i++ {
		nodes = append(nodes, insert(&old, Key{Weight: int64(i % 4), ID: uint64(i)}, i))
	}
	var fresh RBTree
	for i := len(nodes) - 1; i >= 0; i-- {
		fresh.Insert(nodes[i])
		fresh.CheckInvariants()
	}
	prev := Key{Weight: -1}
	fresh.InOrder(func(n *Node) bool {
		if !prev.Less(n.Key) {
			t.Fatalf("InOrder out of order: %v after %v", n.Key, prev)
		}
		prev = n.Key
		return true
	})
	if fresh.Len() != len(nodes) {
		t.Fatalf("Len = %d, want %d", fresh.Len(), len(nodes))
	}
}

// Property: for any sequence of inserts and deletes, in-order traversal
// equals the sorted reference and invariants hold. Deleted nodes go to a
// free list that later inserts draw from first, so node reuse is covered.
func TestRBTreeMatchesSortedReferenceProperty(t *testing.T) {
	type op struct {
		Weight int8
		Delete bool
	}
	f := func(ops []op) bool {
		var tr RBTree
		live := map[uint64]*Node{}
		ref := map[uint64]int64{}
		var free []*Node
		var nextID uint64
		liveIDs := []uint64{}
		for _, o := range ops {
			if o.Delete && len(liveIDs) > 0 {
				// Delete the oldest live node (deterministic choice).
				id := liveIDs[0]
				liveIDs = liveIDs[1:]
				tr.Delete(live[id])
				free = append(free, live[id])
				delete(live, id)
				delete(ref, id)
			} else {
				id := nextID
				nextID++
				nd := &Node{}
				if n := len(free); n > 0 {
					nd, free = free[n-1], free[:n-1]
				}
				nd.Key, nd.Value = Key{Weight: int64(o.Weight), ID: id}, id
				tr.Insert(nd)
				live[id] = nd
				ref[id] = int64(o.Weight)
				liveIDs = append(liveIDs, id)
			}
			tr.CheckInvariants()
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Build the expected sorted key list.
		want := make([]Key, 0, len(ref))
		for id, w := range ref {
			want = append(want, Key{Weight: w, ID: id})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := make([]Key, 0, tr.Len())
		tr.InOrder(func(n *Node) bool {
			got = append(got, n.Key)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRBTreeInsertDelete re-keys and re-inserts each deleted node,
// the CFS requeue pattern; scripts/bench_smoke.sh requires 0 allocs/op.
func BenchmarkRBTreeInsertDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tr RBTree
	nodes := make([]*Node, 0, 1024)
	for i := 0; i < 1024; i++ {
		nodes = append(nodes, insert(&tr, Key{Weight: rng.Int63(), ID: uint64(i)}, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd := nodes[i%len(nodes)]
		tr.Delete(nd)
		nd.Key = Key{Weight: rng.Int63(), ID: uint64(1024 + i)}
		tr.Insert(nd)
	}
}
