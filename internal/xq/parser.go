package xq

import (
	"slices"
	"strconv"
	"strings"
)

// MaxDepth bounds how deeply expressions nest in a query: parenthesized
// expressions, predicates, function arguments, clauses, enclosed
// {expressions} and direct element constructors all count. A deeper query
// is a syntax error, so the recursive-descent parser's stack stays bounded
// whatever a client sends.
const MaxDepth = 256

// parser is a recursive-descent parser over the on-demand lexer. Direct
// element constructors are parsed at the character level, calling back into
// the token-level parser for embedded {expressions}.
//
// A syntax error bails out: fail, and peek on a lexer error, panic with a
// syntaxError that parse recovers, so the first error is the one reported
// and the parse functions return only what they parsed.
type parser struct {
	lx      lexer
	ahead   [2]token // lookahead: ahead[:n] are scanned, not yet consumed
	n       int
	depth   int         // expressions and constructors open around the current one
	numbers []*funcCall // every call of number(), marked user if a prolog declares one
}

// syntaxError carries a positioned syntax error from fail to parse.
type syntaxError struct{ err error }

// fail bails out of the parse with a syntax error at byte offset pos.
func (p *parser) fail(pos int, format string, args ...any) {
	panic(syntaxError{p.lx.errorf(pos, format, args...)})
}

// parse compiles a complete query: an optional prolog (variable and
// function declarations) followed by an expression and end of input. It
// recovers a syntax error as its error and re-panics anything else.
func (p *parser) parse() (e Expr, decls []varDecl, funcs map[string]*userFunc, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(syntaxError)
			if !ok {
				panic(r)
			}
			e, decls, funcs, err = nil, nil, nil, se.err
		}
	}()
	decls, funcs = p.parseProlog()
	e = p.parseExpr()
	if t := p.peek(0); t.kind != tokEOF {
		p.fail(t.pos, "unexpected %s %q after expression", t.kind, t.text)
	}
	for _, f := range p.numbers {
		f.user = funcs["number"] != nil
	}
	return e, decls, funcs, nil
}

// parseProlog parses "declare variable" and "declare function" clauses.
func (p *parser) parseProlog() ([]varDecl, map[string]*userFunc) {
	var decls []varDecl
	funcs := map[string]*userFunc{}
	for p.peek(0).is(tokName, "declare") {
		t1 := *p.peek(1)
		if t1.kind != tokName || (t1.text != "variable" && t1.text != "function") {
			break // "declare" used as an element name in a path; not a prolog.
		}
		p.next()
		p.next()
		if t1.text == "variable" {
			d := varDecl{name: p.expectVar()}
			if d.external = p.accept(tokName, "external"); !d.external {
				p.expect(tokSymbol, ":=")
				d.init = p.parseExprSingle()
			}
			decls = append(decls, d)
		} else {
			ft := p.next()
			if ft.kind != tokName {
				p.fail(ft.pos, "expected function name, got %q", ft.text)
			}
			uf := &userFunc{name: strings.TrimPrefix(ft.text, "local:")}
			p.expect(tokSymbol, "(")
			if !p.peek(0).is(tokSymbol, ")") {
				for ok := true; ok; ok = p.accept(tokSymbol, ",") {
					uf.params = append(uf.params, p.expectVar())
				}
			}
			p.expect(tokSymbol, ")")
			uf.body = p.parseEnclosed()
			if _, dup := funcs[uf.name]; dup {
				p.fail(ft.pos, "function %s declared twice", uf.name)
			}
			funcs[uf.name] = uf
		}
		p.expect(tokSymbol, ";")
	}
	return decls, funcs
}

// parseExpr parses a comma-separated sequence expression.
func (p *parser) parseExpr() Expr {
	e := p.parseExprSingle()
	if !p.peek(0).is(tokSymbol, ",") {
		return e
	}
	parts := []Expr{e}
	for p.accept(tokSymbol, ",") {
		parts = append(parts, p.parseExprSingle())
	}
	return &seqExpr{parts: parts}
}

// parseExprSingle parses one expression, counting it against MaxDepth.
func (p *parser) parseExprSingle() Expr {
	t := p.peek(0)
	p.enter(t.pos)
	defer func() { p.depth-- }()
	if t.kind == tokName {
		t1 := p.peek(1)
		switch {
		case (t.text == "for" || t.text == "let") && t1.kind == tokVar:
			return p.parseFLWOR()
		case (t.text == "some" || t.text == "every") && t1.kind == tokVar:
			return p.parseQuantified()
		case t.text == "if" && t1.is(tokSymbol, "("):
			return p.parseIf()
		}
	}
	return p.parseBinary(0)
}

// enter opens one more level of nesting at byte offset pos, failing past
// MaxDepth; the caller closes it again with p.depth--.
func (p *parser) enter(pos int) {
	if p.depth > MaxDepth {
		p.fail(pos, "expressions nested deeper than %d", MaxDepth)
	}
	p.depth++
}

func (p *parser) parseFLWOR() Expr {
	var fl flworExpr
	for t := *p.peek(0); t.is(tokName, "for") || t.is(tokName, "let"); t = *p.peek(0) {
		p.next()
		isLet := t.text == "let"
		for ok := true; ok; ok = p.accept(tokSymbol, ",") {
			cl := flworClause{isLet: isLet, varName: p.expectVar()}
			if isLet {
				p.expect(tokSymbol, ":=")
			} else {
				if p.accept(tokName, "at") {
					cl.posVar = p.expectVar()
				}
				p.expect(tokName, "in")
			}
			cl.expr = p.parseExprSingle()
			fl.clauses = append(fl.clauses, cl)
		}
	}
	if p.accept(tokName, "where") {
		fl.where = p.parseExprSingle()
	}
	if p.accept(tokName, "order") {
		p.expect(tokName, "by")
		for ok := true; ok; ok = p.accept(tokSymbol, ",") {
			spec := orderSpec{key: p.parseExprSingle(), emptyLeast: true}
			if !p.accept(tokName, "ascending") {
				spec.descending = p.accept(tokName, "descending")
			}
			// "empty greatest|least"
			if p.accept(tokName, "empty") {
				if p.accept(tokName, "greatest") {
					spec.emptyLeast = false
				} else {
					p.expect(tokName, "least")
				}
			}
			fl.orderBy = append(fl.orderBy, spec)
		}
	}
	p.expect(tokName, "return")
	fl.ret = p.parseExprSingle()
	return &fl
}

func (p *parser) parseQuantified() Expr {
	q := quantExpr{every: p.next().text == "every"}
	for ok := true; ok; ok = p.accept(tokSymbol, ",") {
		v := p.expectVar()
		p.expect(tokName, "in")
		q.fl.clauses = append(q.fl.clauses, flworClause{varName: v, expr: p.parseExprSingle()})
	}
	p.expect(tokName, "satisfies")
	q.fl.ret = p.parseExprSingle()
	return &q
}

func (p *parser) parseIf() Expr {
	p.next() // "if"
	p.expect(tokSymbol, "(")
	e := &ifExpr{cond: p.parseExpr()}
	p.expect(tokSymbol, ")")
	p.expect(tokName, "then")
	e.then = p.parseExprSingle()
	p.expect(tokName, "else")
	e.els = p.parseExprSingle()
	return e
}

// binaryLevel is one row of the binary operators' precedence table.
type binaryLevel struct {
	symbols, names []string // the level's operators, as symbol and keyword tokens
	once           bool     // at most one operator: "a op b op c" is an error
	// A level builds its node either with nary, from every operand of a
	// chain at once, or with join, folding the chain left to right.
	nary func(args []Expr) Expr
	join func(op token, l, r Expr) Expr
}

// binaryLevels are the binary operators, loosest first. The operands of
// level i are level i+1 expressions; the last level's are parsed by
// parseInstanceOf.
var binaryLevels = [...]binaryLevel{
	{names: []string{"or"}, nary: func(args []Expr) Expr { return &orExpr{args: args} }},
	{names: []string{"and"}, nary: func(args []Expr) Expr { return &andExpr{args: args} }},
	{symbols: []string{"=", "!=", "<", "<=", ">", ">="}, names: []string{"eq", "ne", "lt", "le", "gt", "ge"},
		once: true, join: compare},
	{symbols: []string{"||"}, join: func(_ token, l, r Expr) Expr { return &concatExpr{l: l, r: r} }},
	{names: []string{"to"}, once: true, join: func(_ token, l, r Expr) Expr { return &rangeExpr{l: l, r: r} }},
	{symbols: []string{"+", "-"}, join: arith},
	{symbols: []string{"*"}, names: []string{"div", "idiv", "mod"}, join: arith},
	{symbols: []string{"|"}, names: []string{"union"}, nary: func(args []Expr) Expr { return &unionExpr{args: args} }},
	{names: []string{"intersect", "except"}, join: intersectExcept},
}

// compare builds a comparison: general for a symbol (=), value for a
// keyword (eq).
func compare(op token, l, r Expr) Expr {
	return &compExpr{op: op.text, general: op.kind == tokSymbol, l: l, r: r}
}

func arith(op token, l, r Expr) Expr { return &arithExpr{op: op.text, l: l, r: r} }

func intersectExcept(op token, l, r Expr) Expr {
	return &intersectExceptExpr{intersect: op.text == "intersect", l: l, r: r}
}

// has reports whether t is one of the level's operators.
func (b *binaryLevel) has(t *token) bool {
	return t.kind == tokSymbol && slices.Contains(b.symbols, t.text) ||
		t.kind == tokName && slices.Contains(b.names, t.text)
}

// levelOf is the row of binaryLevels t is an operator of, or -1. No
// operator is on two rows.
func levelOf(t *token) int {
	if t.kind == tokSymbol || t.kind == tokName {
		for i := range binaryLevels {
			if binaryLevels[i].has(t) {
				return i
			}
		}
	}
	return -1
}

// parseBinary parses an expression of binaryLevels[lvl]: operands joined
// by the operators of row lvl and the rows below it. After an operand one
// peek looks the operator's row up, and that row's chain is parsed from
// the operand on; a finished chain of row r can go on only with a looser
// row. A chain is a loop, so a long one costs no stack.
func (p *parser) parseBinary(lvl int) Expr {
	l := p.parseInstanceOf()
	for top := len(binaryLevels); ; {
		r := levelOf(p.peek(0))
		if r < lvl || r >= top {
			return l
		}
		l, top = p.parseChain(r, l), r
	}
}

// parseChain parses the rest of a chain of binaryLevels[lvl] whose first
// operand l has been parsed and is followed by one of the row's
// operators.
func (p *parser) parseChain(lvl int, l Expr) Expr {
	b := &binaryLevels[lvl]
	var chain []Expr // an n-ary level's operands
	for b.has(p.peek(0)) {
		op := p.next()
		r := p.parseBinary(lvl + 1)
		switch {
		case b.nary == nil:
			l = b.join(op, l, r)
		case chain == nil:
			chain = []Expr{l, r}
		default:
			chain = append(chain, r)
		}
		if b.once {
			break
		}
	}
	if chain != nil {
		return b.nary(chain)
	}
	return l
}

// parseInstanceOf parses a unary expression and its optional "cast as",
// "castable as" and "instance of" suffixes, tightest first.
func (p *parser) parseInstanceOf() Expr {
	x := p.parseUnary()
	if p.acceptTwoNames("cast", "as") {
		x = &castExpr{x: x, t: p.parseSeqType()}
	}
	if p.acceptTwoNames("castable", "as") {
		x = &castExpr{x: x, t: p.parseSeqType(), castable: true}
	}
	if p.acceptTwoNames("instance", "of") {
		x = &instanceOfExpr{x: x, t: p.parseSeqType()}
	}
	return x
}

// acceptTwoNames consumes the two-keyword sequence if present.
func (p *parser) acceptTwoNames(a, b string) bool {
	if !p.peek(0).is(tokName, a) || !p.peek(1).is(tokName, b) {
		return false
	}
	p.next()
	p.next()
	return true
}

// parseSeqType parses a sequence type: an optionally xs:-prefixed name,
// optional "()" for kind tests, and an occurrence indicator (?, *, +)
// attached without whitespace.
func (p *parser) parseSeqType() seqType {
	t := p.next()
	if t.kind != tokName {
		p.fail(t.pos, "expected type name, got %q", t.text)
	}
	st := seqType{name: strings.TrimPrefix(t.text, "xs:")}
	if !knownSeqTypeNames[st.name] {
		p.fail(t.pos, "unknown type %q", t.text)
	}
	end := t.end
	// Kind tests take parens: element(), node(), empty-sequence(), item().
	if nt := p.peek(0); nt.is(tokSymbol, "(") && nt.pos == end {
		p.next()
		close := p.next()
		if !close.is(tokSymbol, ")") {
			p.fail(close.pos, "expected ) in type, got %q", close.text)
		}
		end = close.end
	}
	if nt := *p.peek(0); nt.kind == tokSymbol && nt.pos == end && (nt.text == "?" || nt.text == "*" || nt.text == "+") {
		// Adjacent occurrence indicator (no whitespace) binds to the type.
		p.next()
		st.occurrence = nt.text[0]
	}
	return st
}

func (p *parser) parseUnary() Expr {
	neg := false
	for t := *p.peek(0); t.is(tokSymbol, "-") || t.is(tokSymbol, "+"); t = *p.peek(0) {
		p.next()
		if t.text == "-" {
			neg = !neg
		}
	}
	e := p.parsePath()
	if neg {
		return &unaryExpr{neg: true, x: e}
	}
	return e
}

// parsePath parses a path expression (possibly a single primary).
func (p *parser) parsePath() Expr {
	absolute, doubleSlash := false, false
	if isSlash(p.peek(0)) {
		t := p.next()
		absolute, doubleSlash = true, t.text == "//"
		// "/" alone selects the root; a following step is optional.
		if !doubleSlash && !startsStep(p.peek(0)) {
			return &pathExpr{absolute: true}
		}
	}
	st := p.parseStep()
	// A bare primary with no predicates and no slashes needs no path wrapper.
	if !absolute && st.primary != nil && len(st.preds) == 0 && !isSlash(p.peek(0)) {
		return st.primary
	}
	steps := []pathStep{st}
	for isSlash(p.peek(0)) {
		t := p.next()
		if t.text == "//" {
			steps = append(steps, descOrSelfNode)
		}
		steps = append(steps, p.parseStep())
	}
	return &pathExpr{absolute: absolute, doubleSlash: doubleSlash, steps: steps}
}

func isSlash(t *token) bool { return t.is(tokSymbol, "/") || t.is(tokSymbol, "//") }

// startsStep reports whether the token can begin a path step.
func startsStep(t *token) bool {
	switch t.kind {
	case tokName, tokVar, tokString, tokInteger, tokDecimal:
		return true
	case tokSymbol:
		switch t.text {
		case "@", "..", ".", "*", "(", "<":
			return true
		}
	}
	return false
}

var kindTests = map[string]testKind{
	"text": testText, "node": testNode, "comment": testComment,
	"element": testElement, "document-node": testDocument,
}

// parseStep parses one path step, including its predicates.
func (p *parser) parseStep() pathStep {
	var st pathStep
	switch t := *p.peek(0); {
	case t.is(tokSymbol, "@"):
		p.next()
		st = pathStep{axis: axisAttribute, test: nameTest(p.expectNameOrStar())}
	case t.is(tokSymbol, ".."):
		p.next()
		st = pathStep{axis: axisParent, test: nodeTest{kind: testNode}}
	case t.is(tokSymbol, "*"):
		p.next()
		st = pathStep{axis: axisChild, test: nameTest("*")}
	case t.kind == tokName && strings.Contains(t.text, "::"):
		// Explicit axis syntax: the lexer merges "axis::name" into one
		// token (":" is a name character for QNames); split it here.
		name, rest, _ := strings.Cut(t.text, "::")
		ax, ok := axisByName[name]
		if !ok {
			p.fail(t.pos, "unknown axis %q", name)
		}
		p.next()
		st.axis = ax
		if rest == "" {
			// Test is the next token: * (or a parse error).
			if nt := p.next(); !nt.is(tokSymbol, "*") {
				p.fail(nt.pos, "expected node test after %s::", name)
			}
			st.test = nameTest("*")
		} else if kind, isKind := kindTests[rest]; isKind && p.peek(0).is(tokSymbol, "(") && p.peek(0).pos == t.end {
			// A kind test: axis::node() etc.
			p.next()
			p.expect(tokSymbol, ")")
			st.test = nodeTest{kind: kind}
		} else {
			st.test = nameTest(rest)
		}
	case t.kind == tokName:
		t1 := p.peek(1)
		isCall := t1.is(tokSymbol, "(") && t1.pos == t.end
		if kind, ok := kindTests[t.text]; isCall && ok {
			p.next()
			p.next()
			p.expect(tokSymbol, ")")
			st = pathStep{axis: axisChild, test: nodeTest{kind: kind}}
		} else if isCall || (t.text == "element" || t.text == "attribute" || t.text == "text") &&
			(t1.kind == tokName || t1.is(tokSymbol, "{")) {
			// A function call, or a keyword that begins a computed
			// constructor: a primary.
			st = pathStep{primary: p.parsePrimary()}
		} else {
			p.next()
			st = pathStep{axis: axisChild, test: nameTest(t.text)}
		}
	default:
		st = pathStep{primary: p.parsePrimary()}
	}
	for p.accept(tokSymbol, "[") {
		st.preds = append(st.preds, p.parseExpr())
		p.expect(tokSymbol, "]")
	}
	return st
}

// parsePrimary parses a primary expression.
func (p *parser) parsePrimary() Expr {
	t := *p.peek(0)
	switch t.kind {
	case tokString:
		p.next()
		return &literal{val: [1]Item{t.text}}
	case tokInteger:
		p.next()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			p.fail(t.pos, "bad integer literal %q", t.text)
		}
		return &literal{val: [1]Item{i}}
	case tokDecimal:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.fail(t.pos, "bad decimal literal %q", t.text)
		}
		return &literal{val: [1]Item{f}}
	case tokVar:
		p.next()
		return &varRef{name: t.text}
	case tokSymbol:
		switch t.text {
		case ".":
			p.next()
			return &ctxItemExpr{}
		case "(":
			p.next()
			// Possibly the empty sequence "()".
			if p.accept(tokSymbol, ")") {
				return &seqExpr{}
			}
			e := p.parseExpr()
			p.expect(tokSymbol, ")")
			return e
		case "<":
			return p.parseDirectCtor(t)
		}
	case tokName:
		t1 := p.peek(1)
		switch {
		case t1.is(tokSymbol, "("):
			p.next()
			p.next()
			f := &funcCall{name: strings.TrimPrefix(strings.TrimPrefix(t.text, "fn:"), "local:")}
			if !p.peek(0).is(tokSymbol, ")") {
				for ok := true; ok; ok = p.accept(tokSymbol, ",") {
					f.args = append(f.args, p.parseExprSingle())
				}
			}
			p.expect(tokSymbol, ")")
			if f.name == "number" {
				p.numbers = append(p.numbers, f)
			}
			return f
		// Computed constructors. parseStep sends "element" and
		// "attribute" here only before a name or a "{".
		case t.text == "element":
			p.next()
			ctor := &elemCtor{}
			if p.peek(0).kind == tokName {
				ctor.name = p.next().text
			} else {
				ctor.nameExpr = p.parseEnclosed()
			}
			p.expect(tokSymbol, "{")
			if !p.peek(0).is(tokSymbol, "}") {
				ctor.content = []Expr{p.parseExpr()}
			}
			p.expect(tokSymbol, "}")
			return ctor
		case t.text == "attribute":
			p.next()
			n := p.next()
			if n.kind != tokName {
				p.fail(n.pos, "expected attribute name")
			}
			return &attrExpr{name: n.text, val: p.parseEnclosed()}
		case t.text == "text" && t1.is(tokSymbol, "{"):
			p.next()
			return &textCtor{expr: p.parseEnclosed()}
		}
	}
	p.fail(t.pos, "unexpected %s %q", t.kind, t.text)
	return nil
}

// parseEnclosed parses an enclosed expression: "{" Expr "}".
func (p *parser) parseEnclosed() Expr {
	p.expect(tokSymbol, "{")
	e := p.parseExpr()
	p.expect(tokSymbol, "}")
	return e
}

// --- token helpers ---

// peek returns the i-th upcoming token (0 = next, at most 1) without
// consuming it, in place: the token is valid until the next call of next,
// which shifts the lookahead. A lexer error bails out of the parse.
func (p *parser) peek(i int) *token {
	for p.n <= i {
		t, err := p.lx.scan()
		if err != nil {
			panic(syntaxError{err})
		}
		p.ahead[p.n] = t
		p.n++
	}
	return &p.ahead[i]
}

// next consumes and returns the next token.
func (p *parser) next() token {
	t := *p.peek(0)
	p.ahead[0] = p.ahead[1]
	p.n--
	return t
}

// rewind discards the lookahead and continues scanning at byte offset off.
func (p *parser) rewind(off int) {
	p.n = 0
	p.lx.pos = off
}

// is reports whether t is the token text of kind k.
func (t token) is(k tokKind, text string) bool { return t.kind == k && t.text == text }

// accept consumes the next token if it is text of kind k.
func (p *parser) accept(k tokKind, text string) bool {
	if !p.peek(0).is(k, text) {
		return false
	}
	p.next()
	return true
}

// expect consumes the next token, which must be text of kind k.
func (p *parser) expect(k tokKind, text string) {
	if t := p.next(); !t.is(k, text) {
		p.fail(t.pos, "expected %q, got %q", text, t.text)
	}
}

func (p *parser) expectVar() string {
	t := p.next()
	if t.kind != tokVar {
		p.fail(t.pos, "expected variable, got %q", t.text)
	}
	return t.text
}

func (p *parser) expectNameOrStar() string {
	t := p.next()
	if t.kind != tokName && !t.is(tokSymbol, "*") {
		p.fail(t.pos, "expected name or *, got %q", t.text)
	}
	return t.text
}
