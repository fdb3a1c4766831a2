package xmldoc

import (
	"bytes"
	"fmt"
	"unicode/utf8"
)

// MaxDepth is the deepest element nesting the scanner accepts. Every tree
// operation (Clone, Equal, Renumber, serialization) recurses per level, so
// an unbounded depth is an unbounded stack; nothing the discovery data
// model produces comes near it.
const MaxDepth = 256

// ErrTooDeep is the error Parse and the Framer return for a document that
// nests elements deeper than MaxDepth; compare with errors.Is.
var ErrTooDeep = fmt.Errorf("xmldoc: parse: elements nested deeper than %d", MaxDepth)

// The scanner is a resumable byte-level state machine over byte classes:
// class maps every input byte to a set of flags, state says where in the
// grammar the previous byte left off, and next runs until one token is
// complete. All of its memory is the state below plus the names of the
// open elements, so it can stop at any buffer boundary (tokMore) and pick
// up when more bytes have been appended — which is what lets the Framer
// run it over a network stream — and scanning a complete []byte (Parse) is
// the same code with final set.

// Byte-class flags.
const (
	cNameStart uint8 = 1 << iota // ASCII letter, '_' or ':': may start a name
	cName                        // the above plus digit, '-' and '.': may continue one
	cSpace                       // space, tab, CR, LF
	cText                        // needs no action inside character data
	cValue                       // needs no action inside a quoted attribute value
	cCDATA                       // needs no action inside a CDATA section
	cPlain                       // cName but ':': what the fast paths take in a name
)

// class maps each input byte to its flags. Bytes >= 0x80 carry none: they
// are checked as whole UTF-8 sequences by char.
var class [256]uint8

func init() {
	for c := 0; c < 0x80; c++ {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
			class[c] |= cNameStart | cName
		case '0' <= c && c <= '9', c == '-', c == '.':
			class[c] |= cName
		}
		if class[c]&cName != 0 && c != ':' {
			class[c] |= cPlain
		}
		if c >= 0x20 || c == '\t' || c == '\n' {
			class[c] |= cText | cValue | cCDATA
		}
	}
	for _, c := range []byte(" \t\r\n") {
		class[c] |= cSpace
	}
	for _, c := range []byte("<&]>") {
		class[c] &^= cText
	}
	for _, c := range []byte(`<&"'`) {
		class[c] &^= cValue
	}
	for _, c := range []byte("]>") {
		class[c] &^= cCDATA
	}
}

// Scanner states: where in the grammar the byte before pos left off.
const (
	stContent     uint8 = iota // between tokens
	stText                     // inside character data; n counts trailing ']'
	stLT                       // after '<'
	stStartName                // inside a start tag's name
	stTag                      // inside a start tag, after the name or an attribute
	stEmptyGT                  // after the '/' of "/>"
	stAttrName                 // inside an attribute name
	stAttrEq                   // after an attribute name, before '='
	stAttrQuote                // after '=', before the opening quote
	stValue                    // inside a quoted attribute value
	stEndLT                    // after "</"
	stEndName                  // inside an end tag's name
	stEndGT                    // after an end tag's name, before '>'
	stPILT                     // after "<?"
	stPITarget                 // inside a processing instruction's target
	stPI                       // inside its body; n is 1 after a '?'
	stBang                     // after "<!"
	stBangDash                 // after "<!-"
	stComment                  // inside a comment; n counts trailing '-'
	stBangBracket              // after "<![", matching "CDATA["; n is the progress
	stCDATA                    // inside a CDATA section; n counts trailing ']'
	stDirective                // inside <!DOCTYPE ...> and the like; n is the '<' depth
	stDirLT                    // after a '<' in a directive, matching "!--"; k is the progress
	stDirComment               // inside a comment in a directive; k counts trailing '-'
	stRef                      // after '&'
	stRefName                  // inside a named reference; k bytes are in refName
	stRefHash                  // after "&#"
	stRefDec                   // inside a decimal character reference; k is 1 once a digit was seen
	stRefHex                   // inside a hexadecimal one
)

// tokKind classifies what next returns.
type tokKind uint8

const (
	tokMore    tokKind = iota // the buffer ended mid-token: append more bytes and call again
	tokEOF                    // clean end of a final buffer with every element closed
	tokError                  // malformed input; scanner.err says why
	tokStart                  // a start tag's name [a,b); its attributes follow
	tokAttr                   // one attribute: name [a,b), raw value [c,d)
	tokOpen                   // the '>' ending a start tag
	tokEmpty                  // the "/>" ending a start tag: the element is closed
	tokEnd                    // a complete end tag
	tokText                   // character data [a,b), raw
	tokCDATA                  // a CDATA section's content [a,b)
	tokComment                // a comment's content [a,b)
	tokSkip                   // a processing instruction or directive
)

// token is one lexical unit. Offsets index the buffer passed to next and
// stay valid until it is changed. esc marks raw text that differs from its
// value: it holds a reference or a carriage return.
type token struct {
	kind       tokKind
	esc        bool
	pos        int // the token's first byte ('<' for markup)
	a, b, c, d int
}

type scanner struct {
	state   uint8
	ret     uint8 // state a finished reference returns to
	quote   byte  // closing quote of the value (or directive string) being scanned
	esc     bool
	colons  int // ':' seen in the current name
	n, k    int // small per-state counters, see the state list
	pos     int // next unread byte
	start   int // first byte of the token in progress
	a, b, c int // marks inside it: name span, content start
	ref     uint32
	refName [4]byte
	base    int    // bytes dropped by rebase, for error offsets
	names   []byte // names of the open elements, concatenated
	ends    []int  // end of each in names
	err     error
	// skim, when nonzero, is a depth: next then passes over every token
	// that leaves skim or more elements open instead of returning it, so
	// the element that opened at depth skim is scanned to its end tag in
	// one call (see Framer.Next). Every check is made as before.
	skim int

	namesArr [128]byte // backing arrays, enough for most documents
	endsArr  [16]int
}

// init readies a zero scanner (in place: its slices point into itself).
func (s *scanner) init() { s.names, s.ends = s.namesArr[:0], s.endsArr[:0] }

// depth is the number of open elements.
func (s *scanner) depth() int { return len(s.ends) }

// held is the offset of the first byte the scanner still refers to: a
// caller may drop everything before it and then rebase.
func (s *scanner) held() int {
	if s.state == stContent {
		return s.pos
	}
	return s.start
}

// skims reports whether a token just completed, leaving depth() open
// elements, is one to pass over (see skim).
func (s *scanner) skims() bool { return s.skim != 0 && len(s.ends) >= s.skim }

// rebase tells the scanner the first n bytes of the buffer were dropped.
func (s *scanner) rebase(n int) {
	s.pos -= n
	s.start -= n
	s.a -= n
	s.b -= n
	s.c -= n
	s.base += n
}

func (s *scanner) fail(p int, format string, args ...any) token {
	s.err = fmt.Errorf("xmldoc: parse: %s at byte %d", fmt.Sprintf(format, args...), s.base+p)
	return token{kind: tokError}
}

// top is the name of the innermost open element.
func (s *scanner) top() []byte {
	i := len(s.ends) - 1
	if i == 0 {
		return s.names[:s.ends[0]]
	}
	return s.names[s.ends[i-1]:s.ends[i]]
}

func (s *scanner) pop() {
	s.names = s.names[:len(s.names)-len(s.top())]
	s.ends = s.ends[:len(s.ends)-1]
}

// char checks the character at buf[p], which no fast path accepted: a
// control byte or the first byte of a multi-byte sequence. It returns the
// character's size, or 0 and the token to return (tokMore when the
// sequence is cut by the end of a non-final buffer).
func (s *scanner) char(buf []byte, p int, final bool) (int, token) {
	if buf[p] < utf8.RuneSelf {
		return 0, s.fail(p, "illegal character code %U", rune(buf[p]))
	}
	if !final && !utf8.FullRune(buf[p:]) {
		s.pos = p
		return 0, token{kind: tokMore}
	}
	r, size := utf8.DecodeRune(buf[p:])
	if r == utf8.RuneError && size == 1 {
		return 0, s.fail(p, "invalid UTF-8")
	}
	if r == 0xFFFE || r == 0xFFFF {
		return 0, s.fail(p, "illegal character code %U", r)
	}
	return size, token{}
}

// emit finishes a token that ends just before p and leaves the scanner
// between tokens.
func (s *scanner) emit(t token, p int) token {
	s.state, s.pos = stContent, p
	t.pos = s.start
	return t
}

// next scans buf from where the previous call stopped and returns the next
// token. final says buf holds the input to its end; without it a token cut
// by the end of buf yields tokMore and the call is repeated once buf has
// grown (bytes before held() may be dropped first, see rebase).
func (s *scanner) next(buf []byte, final bool) token {
	if s.err != nil {
		return token{kind: tokError}
	}
	p := s.pos
	for {
		if p >= len(buf) {
			s.pos = p
			if !final {
				return token{kind: tokMore}
			}
			return s.end(buf)
		}
		c := buf[p]
		switch s.state {
		case stContent:
			s.start = p
			if c == '<' {
				s.state = stLT
				p++
				continue
			}
			s.state, s.esc, s.n = stText, false, 0

		case stText:
			q := p
			for p < len(buf) && class[buf[p]]&cText != 0 {
				p++
			}
			if p > q {
				s.n = 0
			}
			if p == len(buf) {
				continue
			}
			switch c = buf[p]; c {
			case '<':
				if !s.skims() {
					return s.emit(token{kind: tokText, a: s.start, b: p, esc: s.esc}, p)
				}
				s.state = stContent
			case '&':
				s.ret, s.state, s.esc, s.n = stText, stRef, true, 0
				p++
			case ']':
				if s.n < 2 {
					s.n++
				}
				p++
			case '>':
				if s.n == 2 {
					return s.fail(p, "unescaped ]]> not in CDATA section")
				}
				s.n = 0
				p++
			case '\r':
				s.esc, s.n = true, 0
				p++
			default:
				size, tk := s.char(buf, p, final)
				if size == 0 {
					return tk
				}
				p += size
				s.n = 0
			}

		case stLT:
			switch {
			case c == '/':
				s.state = stEndLT
				p++
				if len(s.ends) == 0 || noFastPaths {
					continue
				}
				if top := s.top(); p+len(top) < len(buf) && buf[p+len(top)] == '>' && bytes.Equal(buf[p:p+len(top)], top) {
					// The fast path: the end tag of the innermost element,
					// whose name was checked when it opened.
					e := p + len(top)
					s.pop()
					if !s.skims() {
						return s.emit(token{kind: tokEnd, a: p, b: e}, e+1)
					}
					s.state, p = stContent, e+1
				}
			case c == '?':
				s.state = stPILT
				p++
			case c == '!':
				s.state = stBang
				p++
			case class[c]&cNameStart != 0 || c >= utf8.RuneSelf:
				s.a, s.colons, s.state = p, 0, stStartName
				if q := plainName(buf, p); q > p && !noFastPaths {
					// The fast path: the whole name is at hand, ASCII and
					// without a colon, so stStartName has nothing to check.
					p = q
					if tk, ok := s.startTag(buf, p); ok {
						return tk
					}
				}
			default:
				return s.fail(p, "expected element name after <")
			}

		case stStartName, stAttrName, stEndName, stPITarget:
			for p < len(buf) {
				c = buf[p]
				if class[c]&cName != 0 {
					if c == ':' {
						s.colons++
					} else if class[c]&cNameStart == 0 && p-1 > s.a && buf[p-1] == ':' && s.state != stPITarget {
						// The part after a prefix becomes the node's whole
						// name, so it must be able to stand as one.
						return s.fail(s.a, "invalid local name in %q", buf[s.a:p+1])
					}
					p++
					continue
				}
				if c < utf8.RuneSelf {
					break
				}
				size, tk := s.char(buf, p, final)
				if size == 0 {
					return tk
				}
				p += size
			}
			if p == len(buf) {
				continue
			}
			s.b = p
			if s.colons > 1 && s.state != stPITarget {
				return s.fail(s.a, "invalid name %q", buf[s.a:p])
			}
			switch s.state {
			case stStartName:
				if tk, ok := s.startTag(buf, p); ok {
					return tk
				}
			case stAttrName:
				s.state = stAttrEq
			case stEndName:
				s.state = stEndGT
			case stPITarget:
				s.state, s.c, s.n = stPI, p, 0
			}

		case stTag:
			switch {
			case class[c]&cSpace != 0:
				p++
			case c == '>':
				if !s.skims() {
					return s.emit(token{kind: tokOpen}, p+1)
				}
				s.state = stContent
				p++
			case c == '/':
				s.state = stEmptyGT
				p++
			case class[c]&cNameStart != 0 || c >= utf8.RuneSelf:
				if nameEnd, from, to := plainAttr(buf, p); to > 0 && !noFastPaths {
					// The fast path: name="value" at hand, with nothing
					// for stAttrName, stAttrEq or stValue to check or mark.
					s.pos = to + 1
					if !s.skims() {
						return token{kind: tokAttr, pos: s.start, a: p, b: nameEnd, c: from, d: to}
					}
					p = to + 1
					continue
				}
				s.a, s.colons, s.state = p, 0, stAttrName
			default:
				return s.fail(p, "expected attribute name in element")
			}

		case stEmptyGT:
			if c != '>' {
				return s.fail(p, "expected /> in element")
			}
			s.pop()
			if !s.skims() {
				return s.emit(token{kind: tokEmpty}, p+1)
			}
			s.state = stContent
			p++

		case stAttrEq:
			switch {
			case class[c]&cSpace != 0:
				p++
			case c == '=':
				s.state = stAttrQuote
				p++
			default:
				return s.fail(p, "attribute name without = in element")
			}

		case stAttrQuote:
			switch {
			case class[c]&cSpace != 0:
				p++
			case c == '"' || c == '\'':
				p++
				s.quote, s.c, s.esc, s.state = c, p, false, stValue
			default:
				return s.fail(p, "unquoted or missing attribute value in element")
			}

		case stValue:
			for p < len(buf) && class[buf[p]]&cValue != 0 {
				p++
			}
			if p == len(buf) {
				continue
			}
			switch c = buf[p]; {
			case c == s.quote:
				s.state, s.pos = stTag, p+1
				if !s.skims() {
					return token{kind: tokAttr, pos: s.start, a: s.a, b: s.b, c: s.c, d: p, esc: s.esc}
				}
				p++
			case c == '"' || c == '\'':
				p++
			case c == '<':
				return s.fail(p, "unescaped < inside quoted string")
			case c == '&':
				s.ret, s.state, s.esc = stValue, stRef, true
				p++
			case c == '\r':
				s.esc = true
				p++
			default:
				size, tk := s.char(buf, p, final)
				if size == 0 {
					return tk
				}
				p += size
			}

		case stEndLT:
			if class[c]&cNameStart == 0 && c < utf8.RuneSelf {
				return s.fail(p, "expected element name after </")
			}
			s.a, s.colons, s.state = p, 0, stEndName

		case stEndGT:
			switch {
			case class[c]&cSpace != 0:
				p++
			case c != '>':
				return s.fail(p, "invalid characters between </%s and >", buf[s.a:s.b])
			case len(s.ends) == 0:
				return s.fail(s.start, "unexpected end element </%s>", buf[s.a:s.b])
			case !bytes.Equal(s.top(), buf[s.a:s.b]):
				return s.fail(s.start, "element <%s> closed by </%s>", s.top(), buf[s.a:s.b])
			default:
				s.pop()
				if !s.skims() {
					return s.emit(token{kind: tokEnd, a: s.a, b: s.b}, p+1)
				}
				s.state = stContent
				p++
			}

		case stPILT:
			if class[c]&cNameStart == 0 && c < utf8.RuneSelf {
				return s.fail(p, "expected target name after <?")
			}
			s.a, s.colons, s.state = p, 0, stPITarget

		case stPI:
			switch {
			case c == '>' && s.n == 1:
				if string(buf[s.a:s.b]) == "xml" {
					if err := checkXMLDecl(buf[s.c : p-1]); err != nil {
						s.err = err
						return token{kind: tokError}
					}
				}
				if !s.skims() {
					return s.emit(token{kind: tokSkip}, p+1)
				}
				s.state = stContent
				p++
			case c == '?':
				s.n = 1
				p++
			default:
				s.n = 0
				if i := bytes.IndexByte(buf[p:], '?'); i >= 0 {
					p += i
				} else {
					p = len(buf)
				}
			}

		case stBang:
			p++
			switch c {
			case '-':
				s.state = stBangDash
			case '[':
				s.state, s.n = stBangBracket, 0
			default:
				// A directive: its first byte is taken as is, whatever it is.
				s.state, s.quote, s.n = stDirective, 0, 0
			}

		case stBangDash:
			if c != '-' {
				return s.fail(p, "invalid sequence <!- not part of <!--")
			}
			p++
			s.state, s.c, s.n = stComment, p, 0

		case stComment:
			switch {
			case s.n == 2 && c != '>':
				return s.fail(p, `invalid sequence "--" not allowed in comments`)
			case s.n == 2:
				if !s.skims() {
					return s.emit(token{kind: tokComment, a: s.c, b: p - 2}, p+1)
				}
				s.state = stContent
				p++
			case c == '-':
				s.n++
				p++
			default:
				s.n = 0
				if i := bytes.IndexByte(buf[p:], '-'); i >= 0 {
					p += i
				} else {
					p = len(buf)
				}
			}

		case stBangBracket:
			if c != "CDATA["[s.n] {
				return s.fail(p, "invalid <![ sequence")
			}
			p++
			if s.n++; s.n == 6 {
				s.state, s.c, s.n, s.esc = stCDATA, p, 0, false
			}

		case stCDATA:
			q := p
			for p < len(buf) && class[buf[p]]&cCDATA != 0 {
				p++
			}
			if p > q {
				s.n = 0
			}
			if p == len(buf) {
				continue
			}
			switch c = buf[p]; c {
			case ']':
				if s.n < 2 {
					s.n++
				}
				p++
			case '>':
				if s.n == 2 {
					if !s.skims() {
						return s.emit(token{kind: tokCDATA, a: s.c, b: p - 2, esc: s.esc}, p+1)
					}
					s.state = stContent
				}
				s.n = 0
				p++
			case '\r':
				s.esc, s.n = true, 0
				p++
			default:
				size, tk := s.char(buf, p, final)
				if size == 0 {
					return tk
				}
				p += size
				s.n = 0
			}

		case stDirective:
			// Quoted strings hide angle brackets; outside them '<' and '>'
			// nest, and a '>' at depth 0 ends the directive.
			switch {
			case s.quote != 0:
				if c == s.quote {
					s.quote = 0
				}
			case c == '>' && s.n == 0:
				if !s.skims() {
					return s.emit(token{kind: tokSkip}, p+1)
				}
				s.state = stContent
			case c == '>':
				s.n--
			case c == '"' || c == '\'':
				s.quote = c
			case c == '<':
				s.state, s.k = stDirLT, 0
			}
			p++

		case stDirLT:
			if c != "!--"[s.k] {
				// Not a comment: the '<' nests, and this byte is an
				// ordinary directive byte.
				s.n++
				s.state = stDirective
				continue
			}
			p++
			if s.k++; s.k == 3 {
				s.state, s.k = stDirComment, 0
			}

		case stDirComment:
			switch {
			case c == '>' && s.k == 2:
				s.state = stDirective
			case c == '-':
				if s.k < 2 {
					s.k++
				}
			default:
				s.k = 0
			}
			p++

		case stRef:
			switch {
			case c == '#':
				s.state = stRefHash
				p++
			case 'a' <= c && c <= 'z':
				s.refName[0], s.k, s.state = c, 1, stRefName
				p++
			default:
				return s.fail(p, "invalid character entity")
			}

		case stRefName:
			switch {
			case c == ';' && entityRune(s.refName[:s.k]) != 0:
				s.state = s.ret
				p++
			case 'a' <= c && c <= 'z' && s.k < len(s.refName):
				s.refName[s.k] = c
				s.k++
				p++
			default:
				return s.fail(p, "invalid character entity")
			}

		case stRefHash:
			switch {
			case c == 'x':
				s.state, s.ref, s.k = stRefHex, 0, 0
				p++
			case '0' <= c && c <= '9':
				s.state, s.ref, s.k = stRefDec, 0, 0
			default:
				return s.fail(p, "invalid character entity")
			}

		case stRefDec, stRefHex:
			base, d := uint32(10), uint32(0xFF)
			switch {
			case '0' <= c && c <= '9':
				d = uint32(c - '0')
			case s.state == stRefHex && 'a' <= c && c <= 'f':
				d = uint32(c-'a') + 10
			case s.state == stRefHex && 'A' <= c && c <= 'F':
				d = uint32(c-'A') + 10
			}
			if s.state == stRefHex {
				base = 16
			}
			switch {
			case d != 0xFF:
				if s.ref <= utf8.MaxRune { // saturate instead of overflowing
					s.ref = s.ref*base + d
				}
				s.k = 1
				p++
			case c == ';' && s.k == 1 && validRefRune(s.ref):
				s.state = s.ret
				p++
			default:
				return s.fail(p, "invalid character reference")
			}
		}
	}
}

// noFastPaths turns the fast paths of next off, for tests that check them
// against the state machine alone.
var noFastPaths bool

// startTag opens the element whose start tag's name is buf[s.a:p] and
// returns its tokStart, or false when the token is skimmed.
func (s *scanner) startTag(buf []byte, p int) (token, bool) {
	if len(s.ends) == MaxDepth {
		s.err = ErrTooDeep
		return token{kind: tokError}, true
	}
	s.names = append(s.names, buf[s.a:p]...)
	s.ends = append(s.ends, len(s.names))
	s.state, s.pos = stTag, p
	return token{kind: tokStart, pos: s.start, a: s.a, b: p}, !s.skims()
}

// plainName is the end of the name starting at buf[p] if the name is
// ASCII, holds no colon and is followed by another ASCII byte in buf:
// a name the state machine would accept without a check. Otherwise it is
// p, and the state machine scans the name from p.
func plainName(buf []byte, p int) int {
	for i, c := range buf[p:] {
		if class[c]&cPlain == 0 {
			if c == ':' || c >= utf8.RuneSelf {
				return p
			}
			return p + i
		}
	}
	return p
}

// plainAttr is the fast path for an attribute at buf[p]: a plain name
// (see plainName), '=' and a quoted value of bytes that need no action
// (no reference, CR, '<', other quote or non-ASCII byte), all in buf. It
// returns the name's end and the value's bounds, or d == 0 when the
// attribute has any other shape, and the state machine scans it from p.
func plainAttr(buf []byte, p int) (b, c, d int) {
	b = plainName(buf, p)
	if b == p || b+1 >= len(buf) || buf[b] != '=' || buf[b+1] != '"' && buf[b+1] != '\'' {
		return 0, 0, 0
	}
	c = b + 2
	for i, v := range buf[c:] {
		if class[v]&cValue == 0 {
			if v != buf[b+1] {
				return 0, 0, 0
			}
			return b, c, c + i
		}
	}
	return 0, 0, 0
}

// end is next's answer at the end of a final buffer.
func (s *scanner) end(buf []byte) token {
	switch {
	case s.state == stText:
		// Character data may run to the end of input.
		return s.emit(token{kind: tokText, a: s.start, b: len(buf), esc: s.esc}, len(buf))
	case s.state != stContent:
		return s.fail(len(buf), "unexpected EOF")
	case len(s.ends) > 0:
		return s.fail(len(buf), "unexpected EOF: element <%s> not closed", s.top())
	}
	return token{kind: tokEOF}
}

// entityRune is the character a predefined entity name stands for, or 0.
func entityRune(name []byte) rune {
	switch string(name) {
	case "lt":
		return '<'
	case "gt":
		return '>'
	case "amp":
		return '&'
	case "apos":
		return '\''
	case "quot":
		return '"'
	}
	return 0
}

// refRune is the character a numeric reference to code point n yields:
// the conversion string(rune(n)) does, so a surrogate becomes U+FFFD.
func refRune(n uint32) rune {
	if n > utf8.MaxRune || 0xD800 <= n && n <= 0xDFFF {
		return utf8.RuneError
	}
	return rune(n)
}

// validRefRune reports whether a numeric reference to n names a legal XML
// character.
func validRefRune(n uint32) bool {
	if n > utf8.MaxRune {
		return false
	}
	r := refRune(n)
	return r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r != 0xFFFE && r != 0xFFFF
}

// checkXMLDecl rejects an XML declaration naming a version other than 1.0
// or an encoding other than UTF-8: the scanner reads UTF-8 and nothing
// else, and must not silently mis-decode a document that says otherwise.
func checkXMLDecl(body []byte) error {
	if v := declParam(body, "version="); v != "" && v != "1.0" {
		return fmt.Errorf("xmldoc: parse: unsupported XML version %q", v)
	}
	if e := declParam(body, "encoding="); e != "" && !bytes.EqualFold([]byte(e), []byte("utf-8")) {
		return fmt.Errorf("xmldoc: parse: unsupported encoding %q (UTF-8 only)", e)
	}
	return nil
}

// declParam finds param (ending in '=') followed by a quoted value in an
// XML declaration's body and returns the value, or "".
func declParam(body []byte, param string) string {
	for {
		i := bytes.Index(body, []byte(param))
		if i < 0 || i+len(param) >= len(body) {
			return ""
		}
		body = body[i+len(param):]
		if q := body[0]; q == '"' || q == '\'' {
			if j := bytes.IndexByte(body[1:], q); j >= 0 {
				return string(body[1 : 1+j])
			}
			return ""
		}
	}
}
