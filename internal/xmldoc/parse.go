package xmldoc

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Parse reads a complete XML document (or fragment with a single root
// element) and returns its document node. Document order is assigned.
func Parse(r io.Reader) (*Node, error) {
	// bytes.Buffer, bytes.Reader and strings.Reader say how much is left,
	// which saves growing the buffer; one spare byte lets Read report EOF.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + 1)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmldoc: parse: %w", err)
	}
	return ParseBytes(buf.Bytes())
}

// ParseBytes parses a document held in a byte slice, which it neither
// modifies nor retains.
func ParseBytes(src []byte) (*Node, error) { return parse(src, string(src)) }

// ParseString parses a document held in a string.
func ParseString(s string) (*Node, error) { return parse([]byte(s), s) }

// MustParse parses s and panics on error. Intended for tests and statically
// known documents.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// parse builds the tree for src; text is the same bytes as a string.
func parse(src []byte, text string) (*Node, error) {
	var p struct { // one allocation for both
		s scanner
		b builder
	}
	p.s.init()
	p.b.init(text, len(src))
	for {
		switch tok := p.s.next(src, true); tok.kind {
		case tokEOF:
			return p.b.closeElement(), nil
		case tokError:
			return nil, p.s.err
		default:
			p.b.add(tok, src)
		}
	}
}

// builder turns the scanner's tokens into a tree. Names and data that
// appear verbatim in the input are substrings of text, so a parsed tree
// holds one copy of its document; nodes and child lists are carved from
// chunks sized to the input, a few allocations per document instead of
// several per node.
type builder struct {
	text    string  // the input; "" makes every string its own copy
	left    int     // input bytes not yet accounted for by a node chunk
	chunk   int     // size of the latest node chunk
	nodes   []Node  // unused part of the current node chunk
	slots   []*Node // unused part of the current list chunk
	open    []*Node // the open elements, the document node first
	marks   []int   // per open element: where its pending nodes start
	pending []*Node // attributes, then children, of the open elements
	order   int
	scratch []byte

	// Backing arrays for the three stacks, enough for most documents.
	openArr    [16]*Node
	marksArr   [16]int
	pendingArr [32]*Node
}

// init readies a zero builder for an input of size bytes, text if the
// whole input is at hand as a string.
func (b *builder) init(text string, size int) {
	b.text, b.left = text, size
	b.open, b.marks, b.pending = b.openArr[:0], b.marksArr[:0], b.pendingArr[:0]
	b.open = append(b.open, b.node(DocumentNode))
	b.marks = append(b.marks, 0)
}

// bytesPerNode is how much input a node is assumed to stand for when
// chunks are sized: discovery documents run at about 18.
const bytesPerNode = 16

// node returns a new node under the innermost open element. Elements,
// text and comments are created in document order and numbered here;
// attributes are numbered when their start tag ends.
func (b *builder) node(kind Kind) *Node {
	if len(b.nodes) == 0 {
		// Enough for the input that is left, within bounds that keep a
		// small document cheap and a retained subtree from pinning much
		// more than itself.
		b.chunk = min(max(b.left/bytesPerNode+2, 4), 128)
		b.left -= b.chunk * bytesPerNode
		b.nodes = make([]Node, b.chunk)
	}
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	n.Kind = kind
	if len(b.open) > 0 {
		n.Parent = b.open[len(b.open)-1]
	}
	if kind != AttributeNode {
		n.order = b.order
		b.order++
	}
	return n
}

// list returns the pending nodes above mark as a slice of their own,
// capped so that appending to it never runs into a neighbour, and drops
// them from pending.
func (b *builder) list(mark int) []*Node {
	from := b.pending[mark:]
	if len(from) == 0 {
		return nil
	}
	if len(from) > len(b.slots) {
		b.slots = make([]*Node, max(b.chunk, len(from)))
	}
	out := b.slots[:len(from):len(from)]
	b.slots = b.slots[len(from):]
	copy(out, from)
	b.pending = b.pending[:mark]
	return out
}

func (b *builder) str(src []byte, i, j int) string {
	if b.text != "" {
		return b.text[i:j]
	}
	return string(src[i:j])
}

// value is the string a raw text or attribute-value span stands for.
func (b *builder) value(src []byte, i, j int, esc, refs bool) string {
	if !esc {
		return b.str(src, i, j)
	}
	out := b.scratch[:0]
	for raw := src[i:j]; len(raw) > 0; {
		switch c := raw[0]; {
		case c == '\r':
			// Line ends are normalized: CR LF and a lone CR both read as LF.
			out = append(out, '\n')
			raw = raw[1:]
			if len(raw) > 0 && raw[0] == '\n' {
				raw = raw[1:]
			}
		case c == '&' && refs:
			// The scanner has checked the reference; only its value is left.
			end := bytes.IndexByte(raw, ';')
			ref := raw[1:end]
			raw = raw[end+1:]
			if ref[0] != '#' {
				out = append(out, byte(entityRune(ref)))
				continue
			}
			base, digits := uint32(10), ref[1:]
			if digits[0] == 'x' {
				base, digits = 16, digits[1:]
			}
			var n uint32
			for _, d := range digits {
				switch {
				case d <= '9':
					d -= '0'
				case d <= 'F':
					d -= 'A' - 10
				default:
					d -= 'a' - 10
				}
				n = n*base + uint32(d)
			}
			out = utf8.AppendRune(out, refRune(n))
		default:
			out = append(out, c)
			raw = raw[1:]
		}
	}
	b.scratch = out
	return string(out)
}

// localName strips a namespace prefix: the part before the only colon of
// a name that has something on both sides of it.
func localName(name []byte) int {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return i + 1
	}
	return 0
}

// add folds one token into the tree.
func (b *builder) add(tok token, src []byte) {
	top := len(b.open) - 1
	switch tok.kind {
	case tokStart:
		el := b.node(ElementNode) // pending only once it is closed
		el.Name = b.str(src, tok.a+localName(src[tok.a:tok.b]), tok.b)
		b.open = append(b.open, el)
		b.marks = append(b.marks, len(b.pending))
	case tokAttr:
		// Namespace declarations are dropped and prefixes stripped from
		// names, which suffices for discovery data. An attribute that
		// would be left named xmlns goes too: written back out it would
		// read as a declaration.
		name := src[tok.a:tok.b]
		i := localName(name)
		local := name[i:]
		if string(local) == "xmlns" || i == 6 && string(name[:5]) == "xmlns" {
			return
		}
		val := b.value(src, tok.c, tok.d, tok.esc, true)
		for _, a := range b.pending[b.marks[top]:] {
			if a.Name == string(local) { // a repeated attribute replaces the earlier value
				a.Data = val
				return
			}
		}
		a := b.child(AttributeNode)
		a.Name, a.Data = b.str(src, tok.a+i, tok.b), val
	case tokOpen:
		b.closeStartTag()
	case tokEmpty:
		b.closeStartTag()
		b.closeElement()
	case tokEnd:
		b.closeElement()
	case tokText, tokCDATA:
		data := b.value(src, tok.a, tok.b, tok.esc, tok.kind == tokText)
		if top == 0 && strings.TrimSpace(data) == "" {
			return // inter-element whitespace at document level
		}
		b.child(TextNode).Data = data
	case tokComment:
		b.child(CommentNode).Data = b.str(src, tok.a, tok.b)
	}
}

// child makes a node pending on the innermost open element.
func (b *builder) child(kind Kind) *Node {
	n := b.node(kind)
	b.pending = append(b.pending, n)
	return n
}

// closeStartTag gives the innermost open element its attributes, numbered
// right after it.
func (b *builder) closeStartTag() {
	top := len(b.open) - 1
	el := b.open[top]
	el.Attrs = b.list(b.marks[top])
	for _, a := range el.Attrs {
		a.order = b.order
		b.order++
	}
}

// closeElement gives the innermost open element (at the end of input, the
// document node) its children, makes it a child of the one around it, and
// returns it.
func (b *builder) closeElement() *Node {
	top := len(b.open) - 1
	el := b.open[top]
	el.Children = b.list(b.marks[top])
	b.open, b.marks = b.open[:top], b.marks[:top]
	if top > 0 {
		b.pending = append(b.pending, el)
	}
	return el
}
