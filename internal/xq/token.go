package xq

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexical tokens.
type tokKind int

const (
	tokEOF     tokKind = iota
	tokName            // identifier or keyword: for, let, div, element names
	tokVar             // $name
	tokString          // "..." or '...'
	tokInteger         // 42
	tokDecimal         // 4.2
	tokSymbol          // punctuation and operators
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokName:
		return "name"
	case tokVar:
		return "variable"
	case tokString:
		return "string literal"
	case tokInteger:
		return "integer literal"
	case tokDecimal:
		return "decimal literal"
	case tokSymbol:
		return "symbol"
	default:
		return "token"
	}
}

// token is a single lexical token with its source span.
type token struct {
	kind tokKind
	text string
	pos  int // byte offset of the first character
	end  int // byte offset just past the token
}

// The scanner is a table-driven DFA over byte classes: every input byte
// maps through byteClass to a small alphabet, and dfa[state][class] gives
// the next scanner state (stateStop ends the token). ASCII names, numbers
// and whitespace run entirely through the tables; bytes >= 0x80 drop to a
// rune-decoding slow path with the same unicode name rules as before.

// Byte classes — the DFA's input alphabet.
const (
	classOther  uint8 = iota // bytes that can never start or extend a token
	classSpace               // space, tab, CR, LF
	classDigit               // 0-9
	classNameA               // ASCII letter or '_': starts and extends names
	classNameC               // '-' and ':': extend names, never start them
	classDot                 // '.': extends names, starts numbers and symbols
	classQuote               // '"' and '\''
	classDollar              // '$'
	classSym                 // punctuation that starts a symbol token
	classHigh                // bytes >= 0x80 (multi-byte UTF-8)
	numClasses
)

// Scanner states. stateStop is the zero value so that every transition
// the tables leave unspecified terminates the current token.
const (
	stateStop uint8 = iota // terminal: token ends before this byte
	stateName              // inside a name
	stateInt               // inside the integer part of a number
	stateFrac              // inside the fractional part of a number
	numStates
)

// byteClass maps each input byte to its DFA class.
var byteClass [256]uint8

// dfa is the transition table: dfa[state][class] = next state. The
// stateInt -> stateFrac edge on classDot is additionally guarded by a
// one-byte digit lookahead in scan (so "1.2.3" lexes as "1.2" ".3" and
// "1." as "1" "."), matching the previous hand-rolled scanner.
var dfa [numStates][numClasses]uint8

// singleSym marks the one-character symbol tokens.
var singleSym [256]bool

func init() {
	for c := 0x80; c < 0x100; c++ {
		byteClass[c] = classHigh
	}
	for _, c := range []byte{' ', '\t', '\n', '\r'} {
		byteClass[c] = classSpace
	}
	for c := '0'; c <= '9'; c++ {
		byteClass[c] = classDigit
	}
	for c := 'a'; c <= 'z'; c++ {
		byteClass[c] = classNameA
	}
	for c := 'A'; c <= 'Z'; c++ {
		byteClass[c] = classNameA
	}
	byteClass['_'] = classNameA
	byteClass['-'] = classNameC
	byteClass[':'] = classNameC
	byteClass['.'] = classDot
	byteClass['"'] = classQuote
	byteClass['\''] = classQuote
	byteClass['$'] = classDollar
	for _, c := range []byte("()[]{},/@|+*=<>;?!") {
		byteClass[c] = classSym
	}

	dfa[stateName][classNameA] = stateName
	dfa[stateName][classNameC] = stateName
	dfa[stateName][classDigit] = stateName
	dfa[stateName][classDot] = stateName
	dfa[stateName][classHigh] = stateName // verified by rune decode in scan
	dfa[stateInt][classDigit] = stateInt
	dfa[stateInt][classDot] = stateFrac // guarded by digit lookahead
	dfa[stateFrac][classDigit] = stateFrac

	for _, c := range []byte("()[]{},./@|+-*=<>;?") {
		singleSym[c] = true
	}
}

// lexer scans tokens on demand from src. The parser keeps the lookahead
// and can move pos to an arbitrary byte offset, which is how direct element
// constructors switch between expression tokens and raw XML content.
type lexer struct {
	src string
	pos int
}

// errorf produces a positioned syntax error.
func (lx *lexer) errorf(pos int, format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(lx.src); i++ {
		if lx.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("xq: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// ScanTokens lexes src to end of input and returns the number of tokens
// scanned (excluding EOF). It exists so benchmarks and tests can drive
// the scanner directly, without the parser on top.
func ScanTokens(src string) (int, error) {
	lx := lexer{src: src}
	n := 0
	for {
		t, err := lx.scan()
		if err != nil {
			return n, err
		}
		if t.kind == tokEOF {
			return n, nil
		}
		n++
	}
}

// scan reads one token from the raw input by running the DFA.
func (lx *lexer) scan() (token, error) {
	lx.skipSpaceAndComments()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: start, end: start}, nil
	}
	c := lx.src[lx.pos]
	switch byteClass[c] {
	case classDollar:
		lx.pos++
		name := lx.scanName()
		if name == "" {
			return token{}, lx.errorf(start, "expected variable name after $")
		}
		return token{kind: tokVar, text: name, pos: start, end: lx.pos}, nil
	case classQuote:
		s, err := lx.scanString(c)
		if err != nil {
			return token{}, err
		}
		return token{kind: tokString, text: s, pos: start, end: lx.pos}, nil
	case classDigit:
		return lx.runDFA(stateInt), nil
	case classDot:
		if lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]) {
			lx.pos++ // consume '.'; the digit run continues in stateFrac
			t := lx.runDFA(stateFrac)
			t.pos = start
			t.text = lx.src[start:lx.pos]
			t.kind = tokDecimal
			return t, nil
		}
		// Falls through to symbol handling below ('.' or "..").
	case classNameA:
		return lx.runDFA(stateName), nil
	case classHigh:
		name := lx.scanName()
		if name == "" {
			return token{}, lx.errorf(start, "unexpected character %q", c)
		}
		return token{kind: tokName, text: name, pos: start, end: lx.pos}, nil
	}
	// Symbols.
	if lx.pos+1 < len(lx.src) {
		switch lx.src[lx.pos : lx.pos+2] {
		case "//", "..", ":=", "<=", ">=", "!=", "<<", ">>", "||":
			two := lx.src[lx.pos : lx.pos+2]
			lx.pos += 2
			return token{kind: tokSymbol, text: two, pos: start, end: lx.pos}, nil
		}
	}
	if singleSym[c] {
		lx.pos++
		return token{kind: tokSymbol, text: lx.src[start:lx.pos], pos: start, end: lx.pos}, nil
	}
	return token{}, lx.errorf(start, "unexpected character %q", c)
}

// runDFA consumes input from the given start state until the transition
// table stops, producing the finished name or number token. High bytes
// inside a name re-check the decoded rune against the unicode name rules;
// the stateInt -> stateFrac edge applies the one-digit lookahead guard.
func (lx *lexer) runDFA(state uint8) token {
	src := lx.src
	start := lx.pos
	seenFrac := state == stateFrac
	for lx.pos < len(src) {
		cl := byteClass[src[lx.pos]]
		next := dfa[state][cl]
		if next == stateStop {
			break
		}
		if cl == classHigh {
			// Multi-byte rune inside a name: decode and apply the full
			// unicode name-character rule.
			r, size := utf8.DecodeRuneInString(src[lx.pos:])
			if !isNameChar(r) {
				break
			}
			lx.pos += size
			continue
		}
		if state == stateInt && next == stateFrac {
			if lx.pos+1 >= len(src) || !isDigit(src[lx.pos+1]) {
				break
			}
			seenFrac = true
		}
		state = next
		lx.pos++
	}
	kind := tokName
	switch {
	case state == stateInt:
		kind = tokInteger
	case state == stateFrac || seenFrac:
		kind = tokDecimal
	}
	return token{kind: kind, text: src[start:lx.pos], pos: start, end: lx.pos}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if byteClass[c] == classSpace {
			lx.pos++
			continue
		}
		// XQuery comments: (: ... :) with nesting.
		if c == '(' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == ':' {
			depth := 0
			i := lx.pos
			for i < len(lx.src) {
				if i+1 < len(lx.src) && lx.src[i] == '(' && lx.src[i+1] == ':' {
					depth++
					i += 2
					continue
				}
				if i+1 < len(lx.src) && lx.src[i] == ':' && lx.src[i+1] == ')' {
					depth--
					i += 2
					if depth == 0 {
						break
					}
					continue
				}
				i++
			}
			lx.pos = i
			continue
		}
		return
	}
}

// scanName scans a name whose first rune may be outside ASCII; ASCII-only
// names are handled by the DFA and never reach here.
func (lx *lexer) scanName() string {
	start := lx.pos
	for lx.pos < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if lx.pos == start {
			if !isNameStart(r) {
				break
			}
		} else if !isNameChar(r) {
			break
		}
		lx.pos += size
	}
	return lx.src[start:lx.pos]
}

// scanString scans a quoted literal. The common case — no entity
// references, no doubled-quote escapes — returns a substring of the
// source without copying; only literals that actually need rewriting
// build a new string.
func (lx *lexer) scanString(quote byte) (string, error) {
	start := lx.pos
	lx.pos++ // opening quote
	i := lx.pos
	for i < len(lx.src) {
		c := lx.src[i]
		if c == quote {
			if i+1 < len(lx.src) && lx.src[i+1] == quote {
				break // doubled-quote escape: rewrite needed
			}
			s := lx.src[lx.pos:i]
			lx.pos = i + 1
			return s, nil
		}
		if c == '&' {
			if _, _, ok := scanEntity(lx.src[i:]); ok {
				break // entity reference: rewrite needed
			}
		}
		i++
	}
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == quote {
			// Doubled quote is an escaped quote.
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == quote {
				sb.WriteByte(quote)
				lx.pos += 2
				continue
			}
			lx.pos++
			return sb.String(), nil
		}
		if c == '&' {
			rep, n, ok := scanEntity(lx.src[lx.pos:])
			if ok {
				sb.WriteString(rep)
				lx.pos += n
				continue
			}
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return "", lx.errorf(start, "unterminated string literal")
}

// entities are the predeclared XML entity references recognized in string
// literals and constructor content.
var entities = [...]struct{ name, rep string }{
	{"&lt;", "<"}, {"&gt;", ">"}, {"&amp;", "&"}, {"&quot;", `"`}, {"&apos;", "'"},
}

// scanEntity decodes a leading XML entity reference like &lt; returning the
// replacement, the number of bytes consumed, and whether it matched.
func scanEntity(s string) (string, int, bool) {
	for _, e := range &entities {
		if strings.HasPrefix(s, e.name) {
			return e.rep, len(e.name), true
		}
	}
	return "", 0, false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	// Allows QName-ish names with prefixes and hyphens (fn names like
	// starts-with, local-name).
	return r == '_' || r == '-' || r == '.' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
