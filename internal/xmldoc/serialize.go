package xmldoc

import (
	"io"
	"slices"
	"strings"
	"sync"
)

// String serializes the subtree rooted at n to compact XML text. A frozen
// node returns its span of the frozen text without copying it.
func (n *Node) String() string {
	if f := n.frozen; f != nil {
		return f.of(n)
	}
	return string(n.compact(nil, nil))
}

// Indent serializes the subtree rooted at n with two-space indentation.
func (n *Node) Indent() string { return string(n.indent(nil, 0)) }

// WriteTo serializes n compactly to w.
func (n *Node) WriteTo(w io.Writer) (int64, error) {
	m, err := w.Write(n.AppendTo(nil))
	return int64(m), err
}

// AppendTo appends the compact serialization of the subtree rooted at n to
// dst and returns the extended slice. It only reads the tree, so shared
// immutable elements may be serialized concurrently. A frozen node's
// bytes are copied from its span; an unfrozen tree is walked, and any
// frozen subtree listed in it copied.
func (n *Node) AppendTo(dst []byte) []byte { return n.compact(dst, nil) }

// frozen is the one compact serialization of a frozen tree: its text and,
// indexed by document order, each node's span of it.
type frozen struct {
	text  string
	spans []span
}

// span is a node's bytes in its frozen text: text[from:to].
type span struct{ from, to int32 }

// of returns n's span of the frozen text.
func (f *frozen) of(n *Node) string {
	s := f.spans[n.order]
	return f.text[s.from:s.to]
}

// freezer collects the spans while Freeze serializes a tree.
type freezer struct {
	into  *frozen
	text  []byte
	spans []span
}

// freezers holds serialization buffers between Freeze calls, so freezing
// a tree allocates only what it keeps: the record, its text and its spans.
var freezers = sync.Pool{New: func() any { return new(freezer) }}

// maxPooledFreeze bounds the buffer a freezer keeps between calls, so one
// large tree does not pin its size for good.
const maxPooledFreeze = 64 << 10

// Freeze renumbers the tree rooted at the root of n, as Renumber does, and
// serializes it compactly once. From then on AppendTo, String and WriteTo
// of any node of the tree copy that node's span of the frozen text and do
// not walk the tree. The tree must not change afterwards: its bytes do not
// follow a mutation. Clone gives an unfrozen copy to change; Renumber
// unfreezes the tree it numbers. Freeze and Renumber write every node, so
// neither may run on a tree that readers share: publish the tree after
// Freeze returns.
func (n *Node) Freeze() {
	fr := freezers.Get().(*freezer)
	fr.into = new(frozen)
	fr.text = n.Root().compact(fr.text[:0], fr)
	fr.into.text = string(fr.text)
	fr.into.spans = slices.Clone(fr.spans)
	fr.into, fr.spans = nil, fr.spans[:0]
	if cap(fr.text) <= maxPooledFreeze {
		freezers.Put(fr)
	}
}

// compact appends n's compact serialization to dst. With fr set it
// serializes the tree afresh, numbering each node, recording its span and
// pointing it at fr's record; without, a frozen node copies its span.
func (n *Node) compact(dst []byte, fr *freezer) []byte {
	at := 0
	if fr == nil {
		if f := n.frozen; f != nil {
			return append(dst, f.of(n)...)
		}
	} else {
		at = len(fr.spans)
		n.order, n.frozen = int32(at), fr.into
		fr.spans = append(fr.spans, span{from: int32(len(dst))})
	}
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			dst = c.compact(dst, fr)
		}
	case TextNode:
		dst = EscapeText(dst, n.Data)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, n.Data...)
		dst = append(dst, "-->"...)
	case AttributeNode:
		dst = append(dst, n.Name...)
		dst = append(dst, `="`...)
		dst = EscapeAttr(dst, n.Data)
		dst = append(dst, '"')
	case ElementNode:
		dst = append(dst, '<')
		dst = append(dst, n.Name...)
		for _, a := range n.Attrs {
			dst = a.compact(append(dst, ' '), fr)
		}
		if len(n.Children) == 0 {
			dst = append(dst, "/>"...)
			break
		}
		dst = append(dst, '>')
		for _, c := range n.Children {
			dst = c.compact(dst, fr)
		}
		dst = append(dst, "</"...)
		dst = append(dst, n.Name...)
		dst = append(dst, '>')
	}
	if fr != nil {
		fr.spans[at].to = int32(len(dst))
	}
	return dst
}

// indent appends n's serialization with two-space indentation at depth.
// Attributes, and the children of an element holding only text, are
// written compactly.
func (n *Node) indent(dst []byte, depth int) []byte {
	switch n.Kind {
	case DocumentNode:
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, '\n')
			}
			dst = c.indent(dst, depth)
		}
		return dst
	case ElementNode:
	default:
		return n.compact(dst, nil)
	}
	pad := strings.Repeat("  ", depth)
	dst = append(dst, pad...)
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = a.compact(append(dst, ' '), nil)
	}
	if len(n.Children) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	onlyText := true
	for _, c := range n.Children {
		if c.Kind != TextNode {
			onlyText = false
			break
		}
	}
	if onlyText {
		for _, c := range n.Children {
			dst = c.compact(dst, nil)
		}
	} else {
		for _, c := range n.Children {
			dst = append(dst, '\n')
			if c.Kind == TextNode {
				if strings.TrimSpace(c.Data) == "" {
					continue
				}
				dst = append(dst, strings.Repeat("  ", depth+1)...)
				dst = EscapeText(dst, strings.TrimSpace(c.Data))
				continue
			}
			dst = c.indent(dst, depth+1)
		}
		dst = append(dst, '\n')
		dst = append(dst, pad...)
	}
	dst = append(dst, "</"...)
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

// EscapeText appends s to dst as element content: '<', '>' and '&' become
// entity references, and a carriage return a character reference (a
// literal one would read back as a line feed).
func EscapeText(dst []byte, s string) []byte { return escape(dst, s, '>', "&gt;") }

// EscapeAttr appends s to dst as the inside of a double-quoted attribute
// value: as EscapeText, except that '"' is escaped and '>' is not.
func EscapeAttr(dst []byte, s string) []byte { return escape(dst, s, '"', "&quot;") }

// escape copies s, replacing '<', '&', CR, and the byte extra by extraRef.
func escape(dst []byte, s string, extra byte, extraRef string) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '<':
			ref = "&lt;"
		case '&':
			ref = "&amp;"
		case '\r':
			ref = "&#13;"
		case extra:
			ref = extraRef
		default:
			continue
		}
		dst = append(dst, s[from:i]...)
		dst = append(dst, ref...)
		from = i + 1
	}
	return append(dst, s[from:]...)
}
