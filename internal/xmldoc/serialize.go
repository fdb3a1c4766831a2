package xmldoc

import (
	"io"
	"strings"
)

// String serializes the subtree rooted at n to compact XML text.
func (n *Node) String() string { return string(n.AppendTo(nil)) }

// Indent serializes the subtree rooted at n with two-space indentation.
func (n *Node) Indent() string { return string(n.append(nil, 0, 0)) }

// WriteTo serializes n compactly to w.
func (n *Node) WriteTo(w io.Writer) (int64, error) {
	m, err := w.Write(n.AppendTo(nil))
	return int64(m), err
}

// AppendTo appends the compact serialization of the subtree rooted at n to
// dst and returns the extended slice. It only reads the tree, so shared
// immutable elements may be serialized concurrently.
func (n *Node) AppendTo(dst []byte) []byte { return n.append(dst, -1, 0) }

// append emits the node. indent < 0 means compact output.
func (n *Node) append(dst []byte, indent, depth int) []byte {
	switch n.Kind {
	case DocumentNode:
		for i, c := range n.Children {
			if indent >= 0 && i > 0 {
				dst = append(dst, '\n')
			}
			dst = c.append(dst, indent, depth)
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
		pad := ""
		if indent >= 0 {
			pad = strings.Repeat("  ", depth)
			dst = append(dst, pad...)
		}
		dst = append(dst, '<')
		dst = append(dst, n.Name...)
		for _, a := range n.Attrs {
			dst = append(dst, ' ')
			dst = a.append(dst, -1, 0)
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
		if indent < 0 || onlyText {
			for _, c := range n.Children {
				dst = c.append(dst, -1, 0)
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
				dst = c.append(dst, indent, depth+1)
			}
			dst = append(dst, '\n')
			dst = append(dst, pad...)
		}
		dst = append(dst, "</"...)
		dst = append(dst, n.Name...)
		dst = append(dst, '>')
	}
	return dst
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
