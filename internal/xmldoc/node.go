package xmldoc

import (
	"fmt"
	"strings"
)

// Kind discriminates the node types of the data model. It is a byte so
// that it shares a Node's first word with the node's document order.
type Kind uint8

// Node kinds, mirroring the XPath/XQuery data model subset used by the
// thesis queries.
const (
	DocumentNode Kind = iota
	ElementNode
	AttributeNode
	TextNode
	CommentNode
)

// String returns the node-test spelling of the kind.
func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document-node()"
	case ElementNode:
		return "element()"
	case AttributeNode:
		return "attribute()"
	case TextNode:
		return "text()"
	case CommentNode:
		return "comment()"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a single node in an XML tree. The zero value is an empty document.
//
// Children holds element, text and comment children in document order.
// Attrs holds attribute nodes; they are not part of Children, matching the
// XPath data model.
type Node struct {
	Kind Kind // node kind (document/element/text/...)

	// order is the document-order index assigned when the tree is built or
	// renumbered; it makes sorting node sequences cheap. It sits beside
	// Kind so that the two share a word: the parser allocates nodes in
	// chunks, and every decoded answer pays for each byte of a Node.
	order int32

	Name     string  // element/attribute name, possibly "prefix:local"
	Data     string  // text/comment content, attribute value
	Attrs    []*Node // attribute nodes (Kind == AttributeNode)
	Children []*Node // child nodes in document order
	Parent   *Node   // enclosing node; nil at the root

	// frozen is the serialization of the frozen tree this node belongs
	// to (see Freeze); nil for a tree that is serialized by walking it.
	frozen *frozen
}

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Kind: DocumentNode} }

// NewElement returns a detached element node with the given name.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Node { return &Node{Kind: TextNode, Data: data} }

// NewComment returns a detached comment node.
func NewComment(data string) *Node { return &Node{Kind: CommentNode, Data: data} }

// NewAttr returns a detached attribute node.
func NewAttr(name, value string) *Node {
	return &Node{Kind: AttributeNode, Name: name, Data: value}
}

// AppendChild appends c to n's children and sets the parent link.
// It returns n to allow chaining.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// SetAttr sets (or replaces) an attribute on the element.
func (n *Node) SetAttr(name, value string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			a.Data = value
			return n
		}
	}
	a := NewAttr(name, value)
	a.Parent = n
	n.Attrs = append(n.Attrs, a)
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Data, true
		}
	}
	return "", false
}

// LocalName returns the name with any namespace prefix stripped.
func (n *Node) LocalName() string {
	if i := strings.IndexByte(n.Name, ':'); i >= 0 {
		return n.Name[i+1:]
	}
	return n.Name
}

// Root returns the topmost ancestor of n (the document node if present).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// DocumentElement returns the first element child of a document node, or n
// itself if n is already an element, or nil.
func (n *Node) DocumentElement() *Node {
	if n.Kind == ElementNode {
		return n
	}
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// StringValue returns the XPath string value: the concatenation of all
// descendant text for documents and elements, and Data otherwise.
func (n *Node) StringValue() string {
	switch n.Kind {
	case TextNode, CommentNode, AttributeNode:
		return n.Data
	default:
		var sb strings.Builder
		n.appendText(&sb)
		return sb.String()
	}
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			sb.WriteString(c.Data)
		case ElementNode, DocumentNode:
			c.appendText(sb)
		}
	}
}

// ChildElements returns the element children of n in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first child element with the given local
// name, or nil.
func (n *Node) FirstChildElement(local string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.LocalName() == local {
			return c
		}
	}
	return nil
}

// ChildText returns the string value of the first child element with the
// given local name, or "".
func (n *Node) ChildText(local string) string {
	if c := n.FirstChildElement(local); c != nil {
		return c.StringValue()
	}
	return ""
}

// Walk visits n and every descendant (elements, text, comments; attributes
// are visited right after their owner element) in document order. The walk
// stops early if f returns false.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, a := range n.Attrs {
		if !f(a) {
			return false
		}
	}
	for _, c := range n.Children {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// Renumber assigns document-order indices to the whole tree rooted at the
// root of n. It must be called after structural mutation if document-order
// sorting is required; Parse does it automatically. A frozen tree it
// renumbers is unfrozen: its nodes are serialized by walking them again.
func (n *Node) Renumber() {
	i := 0
	n.Root().Walk(func(m *Node) bool {
		m.order, m.frozen = int32(i), nil
		i++
		return true
	})
}

// Order returns the document-order index assigned by Renumber/Parse.
func (n *Node) Order() int { return int(n.order) }

// Clone returns a deep copy of n with no parent. The copy is not frozen,
// whether n is or not.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	for _, a := range n.Attrs {
		ac := &Node{Kind: AttributeNode, Name: a.Name, Data: a.Data, Parent: c}
		c.Attrs = append(c.Attrs, ac)
	}
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Normalize merges adjacent text-node siblings and removes empty text nodes
// throughout the subtree, so that serialization followed by parsing yields a
// structurally equal tree.
func (n *Node) Normalize() {
	out := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind == TextNode {
			if c.Data == "" {
				continue
			}
			if len(out) > 0 && out[len(out)-1].Kind == TextNode {
				out[len(out)-1].Data += c.Data
				continue
			}
		} else {
			c.Normalize()
		}
		out = append(out, c)
	}
	n.Children = out
}

// Equal reports deep structural equality (names, data, attributes and
// children), ignoring parents and document order.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Name != m.Name || n.Data != m.Data ||
		len(n.Attrs) != len(m.Attrs) || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Attrs {
		if n.Attrs[i].Name != m.Attrs[i].Name || n.Attrs[i].Data != m.Attrs[i].Data {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}
