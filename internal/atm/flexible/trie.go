package flexible

// Node is a position in the path trie of a flexible transaction: the state
// after the subtransactions on the root-to-node chain have committed.
// Children are ordered by path preference — the first child is the
// preferred continuation, later siblings are the alternatives tried after
// failures (§4.2's optional execution paths).
type Node struct {
	// Sub is the subtransaction whose commit enters this node ("" at the
	// root).
	Sub      string
	Parent   *Node
	Children []*Node
	// ID is a stable preorder number; translators use it to derive unique
	// activity names when the same subtransaction appears at different
	// trie positions.
	ID int
}

// Trie is the path trie plus its specification.
type Trie struct {
	*Spec
	Root *Node
	// nodes in preorder.
	nodes []*Node
}

// BuildTrie folds the preference-ordered paths into a trie and checks it
// against Constraints, so no caller holds the trie of an ill-formed spec.
// Children at each divergence appear in the order the paths introduce
// them, which is exactly the preference order.
func BuildTrie(spec *Spec) (*Trie, error) {
	root := &Node{}
	for _, path := range spec.Paths {
		cur := root
		for _, sub := range path {
			var next *Node
			for _, c := range cur.Children {
				if c.Sub == sub {
					next = c
					break
				}
			}
			if next == nil {
				next = &Node{Sub: sub, Parent: cur}
				cur.Children = append(cur.Children, next)
			}
			cur = next
		}
	}
	t := &Trie{Spec: spec, Root: root}
	t.number(root)
	if err := Constraints.Check(t); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Trie) number(n *Node) {
	n.ID = len(t.nodes)
	t.nodes = append(t.nodes, n)
	for _, c := range n.Children {
		t.number(c)
	}
}

// Nodes returns the trie nodes in preorder (root first).
func (t *Trie) Nodes() []*Node { return t.nodes }

// pathTo returns the subtransaction names on the chain root → n.
func pathTo(n *Node) []string {
	var rev []string
	for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
		rev = append(rev, cur.Sub)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// nextSibling returns the next lower-preference alternative at n's
// decision point, or nil.
func nextSibling(n *Node) *Node {
	if n.Parent == nil {
		return nil
	}
	sib := n.Parent.Children
	for i, c := range sib {
		if c == n {
			if i+1 < len(sib) {
				return sib[i+1]
			}
			return nil
		}
	}
	return nil
}

// Fallback computes where execution continues when the subtransaction
// entering n aborts: the next alternative node to attempt (nil when the
// whole flexible transaction aborts) and the committed ancestor nodes that
// must be compensated first, nearest first — i.e. in reverse order of
// their execution, as in the Sagas of Figure 2. The failed subtransaction
// itself committed nothing, so it never appears in the compensation list.
func Fallback(n *Node) (next *Node, compensate []*Node) {
	cur := n
	for {
		if s := nextSibling(cur); s != nil {
			return s, compensate
		}
		cur = cur.Parent
		if cur == nil || cur.Parent == nil {
			// Reached the root with no alternative left: global abort
			// after compensating every committed ancestor.
			return nil, compensate
		}
		compensate = append(compensate, cur)
	}
}
