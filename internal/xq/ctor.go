package xq

import (
	"strings"
	"unicode/utf8"

	"wsda/internal/xmldoc"
)

// attrExpr is a computed attribute constructor: attribute name {expr}.
type attrExpr struct {
	name string
	val  Expr
}

func (e *attrExpr) eval(c *evalCtx) (Sequence, error) {
	v, err := e.val.eval(c)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for i, it := range Atomize(v) {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(StringValue(it))
	}
	return Singleton(xmldoc.NewAttr(e.name, sb.String())), nil
}

// parseDirectCtor parses a direct element constructor like
//
//	<result count="{count($x)}">{$x/name} items</result>
//
// The '<' token lt has been peeked but not consumed; parsing proceeds at the
// character level from lt.end, calling back into the token parser for
// embedded expressions, and finally rewinds the lexer past the constructor.
func (p *parser) parseDirectCtor(lt token) Expr {
	// Constructor only if '<' is immediately followed by a name character.
	if r, _ := utf8.DecodeRuneInString(p.lx.src[lt.end:]); !isNameStart(r) {
		p.fail(lt.pos, "unexpected %q", "<")
	}
	ctor, off := p.parseCtorAt(lt.end)
	p.rewind(off)
	return ctor
}

// parseCtorAt parses an element constructor whose tag name starts at byte
// offset off (just past '<'), counting it against MaxDepth. It returns the
// constructor and the offset just past the closing tag.
func (p *parser) parseCtorAt(off int) (*elemCtor, int) {
	p.enter(off)
	defer func() { p.depth-- }()
	src := p.lx.src
	name, off := scanRawName(src, off)
	if name == "" {
		p.fail(off, "expected element name in constructor")
	}
	ctor := &elemCtor{name: name}
	// Attributes.
	for {
		off = skipRawSpace(src, off)
		if off >= len(src) {
			p.fail(off, "unterminated start tag <%s", name)
		}
		if src[off] == '/' {
			if off+1 >= len(src) || src[off+1] != '>' {
				p.fail(off, "expected /> in start tag")
			}
			return ctor, off + 2
		}
		if src[off] == '>' {
			off++
			break
		}
		var attr attrCtor
		if attr.name, off = scanRawName(src, off); attr.name == "" {
			p.fail(off, "expected attribute name in <%s>", name)
		}
		if off = skipRawSpace(src, off); off >= len(src) || src[off] != '=' {
			p.fail(off, "expected = after attribute %s", attr.name)
		}
		if off = skipRawSpace(src, off+1); off >= len(src) || (src[off] != '"' && src[off] != '\'') {
			p.fail(off, "expected quoted value for attribute %s", attr.name)
		}
		attr.parts, off = p.parseAttrValue(off)
		ctor.attrs = append(ctor.attrs, attr)
	}
	// Content until matching </name>.
	var text strings.Builder
	flush := func() {
		if text.Len() == 0 {
			return
		}
		s := text.String()
		text.Reset()
		// Boundary whitespace is stripped (XQuery default boundary-space).
		if strings.TrimSpace(s) == "" {
			return
		}
		ctor.content = append(ctor.content, &textCtor{text: s})
	}
	for off < len(src) {
		c := src[off]
		switch c {
		case '{':
			if off+1 < len(src) && src[off+1] == '{' {
				text.WriteByte('{')
				off += 2
				continue
			}
			flush()
			var e Expr
			e, off = p.parseEmbedded(off + 1)
			ctor.content = append(ctor.content, e)
		case '}':
			if off+1 < len(src) && src[off+1] == '}' {
				text.WriteByte('}')
				off += 2
				continue
			}
			p.fail(off, "unescaped } in element content")
		case '<':
			if strings.HasPrefix(src[off:], "</") {
				flush()
				end, o := scanRawName(src, off+2)
				if o = skipRawSpace(src, o); o >= len(src) || src[o] != '>' {
					p.fail(off, "malformed end tag")
				}
				if end != name {
					p.fail(off, "end tag </%s> does not match <%s>", end, name)
				}
				return ctor, o + 1
			}
			if strings.HasPrefix(src[off:], "<!--") {
				i := strings.Index(src[off+4:], "-->")
				if i < 0 {
					p.fail(off, "unterminated comment")
				}
				off += 4 + i + 3
				continue
			}
			flush()
			var child *elemCtor
			child, off = p.parseCtorAt(off + 1)
			ctor.content = append(ctor.content, child)
		case '&':
			if rep, n, ok := scanEntity(src[off:]); ok {
				text.WriteString(rep)
				off += n
				continue
			}
			text.WriteByte('&')
			off++
		default:
			text.WriteByte(c)
			off++
		}
	}
	p.fail(off, "missing end tag </%s>", name)
	return nil, 0
}

// parseAttrValue parses a quoted attribute value template starting at the
// opening quote, returning its parts and the offset past the closing quote.
func (p *parser) parseAttrValue(off int) ([]attrPart, int) {
	src := p.lx.src
	quote := src[off]
	off++
	var parts []attrPart
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, attrPart{text: text.String()})
			text.Reset()
		}
	}
	for off < len(src) {
		c := src[off]
		switch {
		case c == quote:
			flush()
			return parts, off + 1
		case c == '{':
			if off+1 < len(src) && src[off+1] == '{' {
				text.WriteByte('{')
				off += 2
				continue
			}
			flush()
			var e Expr
			e, off = p.parseEmbedded(off + 1)
			parts = append(parts, attrPart{expr: e})
		case c == '}':
			if off+1 < len(src) && src[off+1] == '}' {
				text.WriteByte('}')
				off += 2
				continue
			}
			p.fail(off, "unescaped } in attribute value")
		case c == '&':
			if rep, n, ok := scanEntity(src[off:]); ok {
				text.WriteString(rep)
				off += n
				continue
			}
			text.WriteByte('&')
			off++
		default:
			text.WriteByte(c)
			off++
		}
	}
	p.fail(off, "unterminated attribute value")
	return nil, 0
}

// parseEmbedded parses an embedded {expression} starting just past the '{'.
// It returns the expression and the offset just past the matching '}'.
func (p *parser) parseEmbedded(off int) (Expr, int) {
	p.rewind(off)
	e := p.parseExpr()
	t := p.next()
	if !t.is(tokSymbol, "}") {
		p.fail(t.pos, "expected } after embedded expression, got %q", t.text)
	}
	return e, t.end
}

func scanRawName(src string, off int) (string, int) {
	start := off
	for off < len(src) {
		r, size := utf8.DecodeRuneInString(src[off:])
		if off == start {
			if !isNameStart(r) {
				break
			}
		} else if !isNameChar(r) {
			break
		}
		off += size
	}
	return src[start:off], off
}

func skipRawSpace(src string, off int) int {
	for off < len(src) {
		switch src[off] {
		case ' ', '\t', '\n', '\r':
			off++
		default:
			return off
		}
	}
	return off
}
