package xq

import (
	"sort"

	"wsda/internal/xmldoc"
)

// sharedKids is the one thing the evaluator knows about its context
// document beyond the xmldoc tree itself: the children of the document's
// root element may be parentless subtrees shared with other documents (the
// registry lists one immutable <tuple> rendering under the root of every
// tuple-set snapshot that includes it). Such a subtree has no Parent link
// and carries only its own local document order, so its parent, its root
// and its rank in the document are resolved here, through the evaluation
// context. A fully parented context document never gets a sharedKids and
// takes the plain xmldoc code everywhere.
type sharedKids struct {
	root *xmldoc.Node         // the context document's root element
	pos  map[*xmldoc.Node]int // shared child -> position under root; built on first use
}

// sharedKidsOf inspects an evaluation's context node: non-nil only for a
// document whose root element lists parentless children.
func sharedKidsOf(doc *xmldoc.Node) *sharedKids {
	if doc.Kind != xmldoc.DocumentNode {
		return nil
	}
	root := doc.DocumentElement()
	if root == nil || len(root.Children) == 0 || root.Children[0].Parent != nil {
		return nil
	}
	return &sharedKids{root: root}
}

// rank returns n's position among the root's children, or false when n is
// not one of them (the document node, the root, a constructed node).
func (s *sharedKids) rank(n *xmldoc.Node) (int, bool) {
	if s.pos == nil {
		s.pos = make(map[*xmldoc.Node]int, len(s.root.Children))
		for i, ch := range s.root.Children {
			s.pos[ch] = i
		}
	}
	i, ok := s.pos[n]
	return i, ok
}

// sortDocOrder sorts nodes by position under the root first and local
// order second. Nodes outside the shared subtrees (document, root element
// and its attributes, constructed nodes) rank before every shared child and
// among themselves by their own order, as they would in a plain document.
func (s *sharedKids) sortDocOrder(nodes []*xmldoc.Node) {
	type ranked struct {
		n     *xmldoc.Node
		major int
	}
	rs := make([]ranked, len(nodes))
	for i, n := range nodes {
		top := n
		for top.Parent != nil {
			top = top.Parent
		}
		rs[i].n = n
		if k, ok := s.rank(top); ok {
			rs[i].major = k + 1
		}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].major != rs[j].major {
			return rs[i].major < rs[j].major
		}
		return rs[i].n.Order() < rs[j].n.Order()
	})
	for i := range rs {
		nodes[i] = rs[i].n
	}
}

// parentOf is n.Parent, except that a shared child of the context
// document's root resolves to that root.
func (c *evalCtx) parentOf(n *xmldoc.Node) *xmldoc.Node {
	if n.Parent != nil || c.shared == nil || n.Kind == xmldoc.DocumentNode {
		return n.Parent
	}
	if _, ok := c.shared.rank(n); ok {
		return c.shared.root
	}
	return nil
}

// rootOf is n.Root() under parentOf.
func (c *evalCtx) rootOf(n *xmldoc.Node) *xmldoc.Node {
	for p := c.parentOf(n); p != nil; p = c.parentOf(n) {
		n = p
	}
	return n
}
