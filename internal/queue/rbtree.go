package queue

// Key orders red-black tree nodes by a primary weight (for CFS this is the
// task's virtual runtime in nanoseconds) with a unique ID tiebreak, exactly
// like the kernel's (vruntime, pid)-style ordering: equal vruntimes must
// not collide, and iteration must be deterministic.
type Key struct {
	Weight int64
	ID     uint64
}

// Less reports whether k orders strictly before other.
func (k Key) Less(other Key) bool {
	if k.Weight != other.Weight {
		return k.Weight < other.Weight
	}
	return k.ID < other.ID
}

type color bool

const (
	red   color = false
	black color = true
)

// Node is an intrusive red-black tree node. The caller owns it — typically
// embedded in the record it orders — sets Key and Value, and links it with
// Insert; Delete unlinks it in O(log n) without a lookup. A node is in at
// most one tree at a time, and once deleted (or abandoned together with
// its tree) it may be inserted again, into the same tree or another: the
// tree never allocates.
type Node struct {
	Key   Key
	Value any

	parent, left, right *Node
	color               color
}

// RBTree is a left-leaning-free classic red-black tree keyed by Key.
// The zero value is an empty tree ready to use.
//
// It backs the per-core CFS runqueues: Min() is the leftmost node (next
// task to run), Insert places a woken/preempted task by vruntime, and
// Delete removes a task picked to run or migrated away.
type RBTree struct {
	root *Node
	n    int
}

// Len returns the number of nodes.
func (t *RBTree) Len() int { return t.n }

// Min returns the leftmost (smallest-key) node, or nil when empty.
func (t *RBTree) Min() *Node {
	if t.root == nil {
		return nil
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n
}

// Max returns the rightmost (largest-key) node, or nil when empty.
func (t *RBTree) Max() *Node {
	if t.root == nil {
		return nil
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n
}

// Insert links node into the tree under node.Key. The node's previous
// links, if any, are discarded, so a node deleted from (or abandoned with)
// another tree can be reused directly. Duplicate keys are a programmer
// error (IDs are unique by construction); Insert panics if one is
// encountered, because a silent duplicate would corrupt scheduling order.
func (t *RBTree) Insert(node *Node) {
	key := node.Key
	var parent *Node
	cur := t.root
	for cur != nil {
		parent = cur
		switch {
		case key.Less(cur.Key):
			cur = cur.left
		case cur.Key.Less(key):
			cur = cur.right
		default:
			panic("queue: duplicate key inserted into RBTree")
		}
	}
	node.parent, node.left, node.right, node.color = parent, nil, nil, red
	switch {
	case parent == nil:
		t.root = node
	case key.Less(parent.Key):
		parent.left = node
	default:
		parent.right = node
	}
	t.n++
	t.insertFixup(node)
}

// Delete unlinks node from the tree. The node must currently be in this
// tree. Its links are cleared, so the caller may insert it again.
func (t *RBTree) Delete(node *Node) {
	t.n--
	var fixAt *Node
	var fixParent *Node
	removed := node
	removedColor := removed.color

	switch {
	case node.left == nil:
		fixAt = node.right
		fixParent = node.parent
		t.transplant(node, node.right)
	case node.right == nil:
		fixAt = node.left
		fixParent = node.parent
		t.transplant(node, node.left)
	default:
		// Successor: leftmost of right subtree.
		succ := node.right
		for succ.left != nil {
			succ = succ.left
		}
		removedColor = succ.color
		fixAt = succ.right
		if succ.parent == node {
			fixParent = succ
		} else {
			fixParent = succ.parent
			t.transplant(succ, succ.right)
			succ.right = node.right
			succ.right.parent = succ
		}
		t.transplant(node, succ)
		succ.left = node.left
		succ.left.parent = succ
		succ.color = node.color
	}
	if removedColor == black {
		t.deleteFixup(fixAt, fixParent)
	}
	node.parent, node.left, node.right = nil, nil, nil
}

// InOrder calls fn for each node in ascending key order; returning false
// stops the walk. It is used by load balancing (walk the busiest queue)
// and by tests.
func (t *RBTree) InOrder(fn func(*Node) bool) {
	var walk func(*Node) bool
	walk = func(n *Node) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}

func (t *RBTree) transplant(u, v *Node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *RBTree) rotateLeft(x *Node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *RBTree) rotateRight(x *Node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *RBTree) insertFixup(z *Node) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func nodeColor(n *Node) color {
	if n == nil {
		return black
	}
	return n.color
}

func (t *RBTree) deleteFixup(x *Node, parent *Node) {
	for x != t.root && nodeColor(x) == black {
		if parent == nil {
			break
		}
		if x == parent.left {
			sib := parent.right
			if nodeColor(sib) == red {
				sib.color = black
				parent.color = red
				t.rotateLeft(parent)
				sib = parent.right
			}
			if sib == nil {
				x = parent
				parent = x.parent
				continue
			}
			if nodeColor(sib.left) == black && nodeColor(sib.right) == black {
				sib.color = red
				x = parent
				parent = x.parent
			} else {
				if nodeColor(sib.right) == black {
					if sib.left != nil {
						sib.left.color = black
					}
					sib.color = red
					t.rotateRight(sib)
					sib = parent.right
				}
				sib.color = parent.color
				parent.color = black
				if sib.right != nil {
					sib.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
			}
		} else {
			sib := parent.left
			if nodeColor(sib) == red {
				sib.color = black
				parent.color = red
				t.rotateRight(parent)
				sib = parent.left
			}
			if sib == nil {
				x = parent
				parent = x.parent
				continue
			}
			if nodeColor(sib.right) == black && nodeColor(sib.left) == black {
				sib.color = red
				x = parent
				parent = x.parent
			} else {
				if nodeColor(sib.left) == black {
					if sib.right != nil {
						sib.right.color = black
					}
					sib.color = red
					t.rotateLeft(sib)
					sib = parent.left
				}
				sib.color = parent.color
				parent.color = black
				if sib.left != nil {
					sib.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
			}
		}
	}
	if x != nil {
		x.color = black
	}
}

// checkInvariants validates red-black properties; exported to tests via
// export_test.go. It returns the black-height and panics on violation.
func (t *RBTree) checkInvariants() int {
	if nodeColor(t.root) != black {
		panic("rbtree: root is not black")
	}
	var check func(n *Node) int
	check = func(n *Node) int {
		if n == nil {
			return 1
		}
		if nodeColor(n) == red {
			if nodeColor(n.left) == red || nodeColor(n.right) == red {
				panic("rbtree: red node with red child")
			}
		}
		if n.left != nil && !n.left.Key.Less(n.Key) {
			panic("rbtree: left child not smaller")
		}
		if n.right != nil && !n.Key.Less(n.right.Key) {
			panic("rbtree: right child not larger")
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh != rh {
			panic("rbtree: black-height mismatch")
		}
		if nodeColor(n) == black {
			return lh + 1
		}
		return lh
	}
	return check(t.root)
}
