package xq

import (
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the on-demand lexer. Direct
// element constructors are parsed at the character level, calling back into
// the token-level parser for embedded {expressions}.
type parser struct {
	lx *lexer
}

// parse compiles a complete query: an optional prolog (variable and
// function declarations) followed by an expression and end of input.
func (p *parser) parse() (Expr, []varDecl, map[string]*userFunc, error) {
	decls, funcs, err := p.parseProlog()
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, nil, nil, err
	}
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, nil, nil, err
	}
	if t.kind != tokEOF {
		return nil, nil, nil, p.lx.errorf(t.pos, "unexpected %s %q after expression", t.kind, t.text)
	}
	return e, decls, funcs, nil
}

// parseProlog parses "declare variable" and "declare function" clauses.
func (p *parser) parseProlog() ([]varDecl, map[string]*userFunc, error) {
	var decls []varDecl
	funcs := map[string]*userFunc{}
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, nil, err
		}
		if t.kind != tokName || t.text != "declare" {
			return decls, funcs, nil
		}
		t1, err := p.lx.peek(1)
		if err != nil {
			return nil, nil, err
		}
		if t1.kind != tokName || (t1.text != "variable" && t1.text != "function") {
			// "declare" used as an element name in a path; not a prolog.
			return decls, funcs, nil
		}
		p.lx.next()
		p.lx.next()
		switch t1.text {
		case "variable":
			name, err := p.expectVar()
			if err != nil {
				return nil, nil, err
			}
			d := varDecl{name: name}
			if ok, err := p.acceptName("external"); err != nil {
				return nil, nil, err
			} else if ok {
				d.external = true
			} else {
				if err := p.expectSymbol(":="); err != nil {
					return nil, nil, err
				}
				init, err := p.parseExprSingle()
				if err != nil {
					return nil, nil, err
				}
				d.init = init
			}
			decls = append(decls, d)
		case "function":
			ft, err := p.lx.next()
			if err != nil {
				return nil, nil, err
			}
			if ft.kind != tokName {
				return nil, nil, p.lx.errorf(ft.pos, "expected function name, got %q", ft.text)
			}
			name := strings.TrimPrefix(ft.text, "local:")
			if err := p.expectSymbol("("); err != nil {
				return nil, nil, err
			}
			uf := &userFunc{name: name}
			nt, err := p.lx.peek(0)
			if err != nil {
				return nil, nil, err
			}
			if !(nt.kind == tokSymbol && nt.text == ")") {
				for {
					v, err := p.expectVar()
					if err != nil {
						return nil, nil, err
					}
					uf.params = append(uf.params, v)
					ok, err := p.acceptSymbol(",")
					if err != nil {
						return nil, nil, err
					}
					if !ok {
						break
					}
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, nil, err
			}
			if err := p.expectSymbol("{"); err != nil {
				return nil, nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectSymbol("}"); err != nil {
				return nil, nil, err
			}
			uf.body = body
			if _, dup := funcs[name]; dup {
				return nil, nil, p.lx.errorf(ft.pos, "function %s declared twice", name)
			}
			funcs[name] = uf
		}
		if err := p.expectSymbol(";"); err != nil {
			return nil, nil, err
		}
	}
}

// parseExpr parses a comma-separated sequence expression.
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	parts := []Expr{first}
	for {
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &seqExpr{parts: parts}, nil
}

func (p *parser) parseExprSingle() (Expr, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	if t.kind == tokName {
		t1, err := p.lx.peek(1)
		if err != nil {
			return nil, err
		}
		switch t.text {
		case "for", "let":
			if t1.kind == tokVar {
				return p.parseFLWOR()
			}
		case "some", "every":
			if t1.kind == tokVar {
				return p.parseQuantified()
			}
		case "if":
			if t1.kind == tokSymbol && t1.text == "(" {
				return p.parseIf()
			}
		}
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() (Expr, error) {
	var fl flworExpr
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		if t.kind != tokName || (t.text != "for" && t.text != "let") {
			break
		}
		p.lx.next()
		isLet := t.text == "let"
		for {
			v, err := p.expectVar()
			if err != nil {
				return nil, err
			}
			cl := flworClause{isLet: isLet, varName: v}
			if !isLet {
				if ok, err := p.acceptName("at"); err != nil {
					return nil, err
				} else if ok {
					pv, err := p.expectVar()
					if err != nil {
						return nil, err
					}
					cl.posVar = pv
				}
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
			} else {
				if err := p.expectSymbol(":="); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			cl.expr = e
			fl.clauses = append(fl.clauses, cl)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if len(fl.clauses) == 0 {
		t, _ := p.lx.peek(0)
		return nil, p.lx.errorf(t.pos, "expected for/let clause")
	}
	if ok, err := p.acceptName("where"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.where = w
	}
	if ok, err := p.acceptName("order"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := orderSpec{key: key, emptyLeast: true}
			if ok, err := p.acceptName("ascending"); err != nil {
				return nil, err
			} else if !ok {
				if ok, err := p.acceptName("descending"); err != nil {
					return nil, err
				} else if ok {
					spec.descending = true
				}
			}
			// "empty greatest|least"
			if ok, err := p.acceptName("empty"); err != nil {
				return nil, err
			} else if ok {
				if ok, err := p.acceptName("greatest"); err != nil {
					return nil, err
				} else if ok {
					spec.emptyLeast = false
				} else if err := p.expectName("least"); err != nil {
					return nil, err
				}
			}
			fl.orderBy = append(fl.orderBy, spec)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.ret = ret
	return &fl, nil
}

func (p *parser) parseQuantified() (Expr, error) {
	t, err := p.lx.next()
	if err != nil {
		return nil, err
	}
	q := quantExpr{every: t.text == "every"}
	for {
		v, err := p.expectVar()
		if err != nil {
			return nil, err
		}
		if err := p.expectName("in"); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		q.binds = append(q.binds, flworClause{varName: v, expr: e})
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.sat = sat
	return &q, nil
}

func (p *parser) parseIf() (Expr, error) {
	p.lx.next() // "if"
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &ifExpr{cond: cond, then: then, els: els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	args := []Expr{first}
	for {
		ok, err := p.acceptName("or")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	if len(args) == 1 {
		return args[0], nil
	}
	return &orExpr{args: args}, nil
}

func (p *parser) parseAnd() (Expr, error) {
	first, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	args := []Expr{first}
	for {
		ok, err := p.acceptName("and")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	if len(args) == 1 {
		return args[0], nil
	}
	return &andExpr{args: args}, nil
}

var generalCompOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}
var valueCompOps = map[string]bool{"eq": true, "ne": true, "lt": true, "le": true, "gt": true, "ge": true}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	if t.kind == tokSymbol && generalCompOps[t.text] {
		p.lx.next()
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &compExpr{op: t.text, general: true, l: l, r: r}, nil
	}
	if t.kind == tokName && valueCompOps[t.text] {
		p.lx.next()
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &compExpr{op: t.text, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseConcat() (Expr, error) {
	l, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptSymbol("||")
		if err != nil {
			return nil, err
		}
		if !ok {
			return l, nil
		}
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		l = &concatExpr{l: l, r: r}
	}
}

func (p *parser) parseRange() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	ok, err := p.acceptName("to")
	if err != nil {
		return nil, err
	}
	if !ok {
		return l, nil
	}
	r, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &rangeExpr{l: l, r: r}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.lx.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &arithExpr{op: t.text, l: l, r: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		var op string
		if t.kind == tokSymbol && t.text == "*" {
			op = "*"
		} else if t.kind == tokName && (t.text == "div" || t.text == "idiv" || t.text == "mod") {
			op = t.text
		} else {
			return l, nil
		}
		p.lx.next()
		r, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		l = &arithExpr{op: op, l: l, r: r}
	}
}

func (p *parser) parseUnion() (Expr, error) {
	first, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	args := []Expr{first}
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		isUnion := (t.kind == tokSymbol && t.text == "|") || (t.kind == tokName && t.text == "union")
		if !isUnion {
			break
		}
		p.lx.next()
		e, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	if len(args) == 1 {
		return args[0], nil
	}
	return &unionExpr{args: args}, nil
}

func (p *parser) parseIntersectExcept() (Expr, error) {
	l, err := p.parseInstanceOf()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		if t.kind != tokName || (t.text != "intersect" && t.text != "except") {
			return l, nil
		}
		p.lx.next()
		r, err := p.parseInstanceOf()
		if err != nil {
			return nil, err
		}
		l = &intersectExceptExpr{intersect: t.text == "intersect", l: l, r: r}
	}
}

func (p *parser) parseInstanceOf() (Expr, error) {
	x, err := p.parseCastable()
	if err != nil {
		return nil, err
	}
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	if t.kind == tokName && t.text == "instance" {
		t1, err := p.lx.peek(1)
		if err != nil {
			return nil, err
		}
		if t1.kind == tokName && t1.text == "of" {
			p.lx.next()
			p.lx.next()
			st, err := p.parseSeqType()
			if err != nil {
				return nil, err
			}
			return &instanceOfExpr{x: x, t: st}, nil
		}
	}
	return x, nil
}

func (p *parser) parseCastable() (Expr, error) {
	x, err := p.parseCast()
	if err != nil {
		return nil, err
	}
	ok, err := p.acceptTwoNames("castable", "as")
	if err != nil {
		return nil, err
	}
	if !ok {
		return x, nil
	}
	st, err := p.parseSeqType()
	if err != nil {
		return nil, err
	}
	return &castExpr{x: x, t: st, castable: true}, nil
}

func (p *parser) parseCast() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	ok, err := p.acceptTwoNames("cast", "as")
	if err != nil {
		return nil, err
	}
	if !ok {
		return x, nil
	}
	st, err := p.parseSeqType()
	if err != nil {
		return nil, err
	}
	return &castExpr{x: x, t: st}, nil
}

// acceptTwoNames consumes the two-keyword sequence if present.
func (p *parser) acceptTwoNames(a, b string) (bool, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return false, err
	}
	if t.kind != tokName || t.text != a {
		return false, nil
	}
	t1, err := p.lx.peek(1)
	if err != nil {
		return false, err
	}
	if t1.kind != tokName || t1.text != b {
		return false, nil
	}
	p.lx.next()
	p.lx.next()
	return true, nil
}

// parseSeqType parses a sequence type: an optionally xs:-prefixed name,
// optional "()" for kind tests, and an occurrence indicator (?, *, +)
// attached without whitespace.
func (p *parser) parseSeqType() (seqType, error) {
	t, err := p.lx.next()
	if err != nil {
		return seqType{}, err
	}
	if t.kind != tokName {
		return seqType{}, p.lx.errorf(t.pos, "expected type name, got %q", t.text)
	}
	name := strings.TrimPrefix(t.text, "xs:")
	if !knownSeqTypeNames[name] {
		return seqType{}, p.lx.errorf(t.pos, "unknown type %q", t.text)
	}
	end := t.end
	// Kind tests take parens: element(), node(), empty-sequence(), item().
	nt, err := p.lx.peek(0)
	if err != nil {
		return seqType{}, err
	}
	if nt.kind == tokSymbol && nt.text == "(" && nt.pos == end {
		p.lx.next()
		close, err := p.lx.next()
		if err != nil {
			return seqType{}, err
		}
		if close.kind != tokSymbol || close.text != ")" {
			return seqType{}, p.lx.errorf(close.pos, "expected ) in type, got %q", close.text)
		}
		end = close.end
		if nt, err = p.lx.peek(0); err != nil {
			return seqType{}, err
		}
	}
	st := seqType{name: name}
	if nt.kind == tokSymbol && nt.pos == end && (nt.text == "?" || nt.text == "*" || nt.text == "+") {
		// Adjacent occurrence indicator (no whitespace) binds to the type.
		p.lx.next()
		st.occurrence = nt.text[0]
	}
	return st, nil
}

func (p *parser) parseUnary() (Expr, error) {
	neg := false
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		if t.kind == tokSymbol && (t.text == "-" || t.text == "+") {
			p.lx.next()
			if t.text == "-" {
				neg = !neg
			}
			continue
		}
		break
	}
	e, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if neg {
		return &unaryExpr{neg: true, x: e}, nil
	}
	return e, nil
}

// parsePath parses a path expression (possibly a single primary).
func (p *parser) parsePath() (Expr, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	pe := &pathExpr{}
	if t.kind == tokSymbol && (t.text == "/" || t.text == "//") {
		p.lx.next()
		pe.absolute = true
		pe.doubleSlash = t.text == "//"
		if !pe.doubleSlash {
			// "/" alone selects the root; a following step is optional.
			nt, err := p.lx.peek(0)
			if err != nil {
				return nil, err
			}
			if !p.startsStep(nt) {
				return pe, nil
			}
		}
	}
	st, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	pe.steps = append(pe.steps, st)
	for {
		t, err := p.lx.peek(0)
		if err != nil {
			return nil, err
		}
		if t.kind != tokSymbol || (t.text != "/" && t.text != "//") {
			break
		}
		p.lx.next()
		if t.text == "//" {
			pe.steps = append(pe.steps, descOrSelfNode)
		}
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
	}
	// A bare primary with no predicates and no slashes needs no path wrapper.
	if !pe.absolute && len(pe.steps) == 1 && pe.steps[0].primary != nil && len(pe.steps[0].preds) == 0 {
		return pe.steps[0].primary, nil
	}
	return pe, nil
}

// startsStep reports whether the token can begin a path step.
func (p *parser) startsStep(t token) bool {
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
func (p *parser) parseStep() (pathStep, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return pathStep{}, err
	}
	var st pathStep
	switch {
	case t.kind == tokSymbol && t.text == "@":
		p.lx.next()
		name, err := p.expectNameOrStar()
		if err != nil {
			return pathStep{}, err
		}
		st = pathStep{axis: axisAttribute, test: nameTest(name)}
	case t.kind == tokSymbol && t.text == "..":
		p.lx.next()
		st = pathStep{axis: axisParent, test: nodeTest{kind: testNode}}
	case t.kind == tokSymbol && t.text == "*":
		p.lx.next()
		st = pathStep{axis: axisChild, test: nameTest("*")}
	case t.kind == tokName && strings.Contains(t.text, "::"):
		// Explicit axis syntax: the lexer merges "axis::name" into one
		// token (":" is a name character for QNames); split it here.
		parts := strings.SplitN(t.text, "::", 2)
		ax, ok := axisByName[parts[0]]
		if !ok {
			return pathStep{}, p.lx.errorf(t.pos, "unknown axis %q", parts[0])
		}
		p.lx.next()
		st = pathStep{axis: ax}
		rest := parts[1]
		switch {
		case rest == "":
			// Test is the next token: * (or a parse error).
			nt, err := p.lx.next()
			if err != nil {
				return pathStep{}, err
			}
			if nt.kind == tokSymbol && nt.text == "*" {
				st.test = nameTest("*")
			} else {
				return pathStep{}, p.lx.errorf(nt.pos, "expected node test after %s::", parts[0])
			}
		default:
			// Possibly a kind test: axis::node() etc.
			nt, err := p.lx.peek(0)
			if err != nil {
				return pathStep{}, err
			}
			if kind, isKind := kindTests[rest]; isKind && nt.kind == tokSymbol && nt.text == "(" && nt.pos == t.end {
				p.lx.next()
				if err := p.expectSymbol(")"); err != nil {
					return pathStep{}, err
				}
				st.test = nodeTest{kind: kind}
			} else {
				st.test = nameTest(rest)
			}
		}
	case t.kind == tokName:
		t1, err := p.lx.peek(1)
		if err != nil {
			return pathStep{}, err
		}
		isCall := t1.kind == tokSymbol && t1.text == "(" && t1.pos == t.end
		if isCall {
			if kind, ok := kindTests[t.text]; ok {
				p.lx.next()
				p.lx.next()
				if err := p.expectSymbol(")"); err != nil {
					return pathStep{}, err
				}
				st = pathStep{axis: axisChild, test: nodeTest{kind: kind}}
				break
			}
			prim, err := p.parsePrimary()
			if err != nil {
				return pathStep{}, err
			}
			st = pathStep{primary: prim}
			break
		}
		// Keywords that begin computed constructors are primaries.
		if (t.text == "element" || t.text == "attribute" || t.text == "text") &&
			(t1.kind == tokName || (t1.kind == tokSymbol && t1.text == "{")) {
			prim, err := p.parsePrimary()
			if err != nil {
				return pathStep{}, err
			}
			st = pathStep{primary: prim}
			break
		}
		p.lx.next()
		st = pathStep{axis: axisChild, test: nameTest(t.text)}
	default:
		prim, err := p.parsePrimary()
		if err != nil {
			return pathStep{}, err
		}
		st = pathStep{primary: prim}
	}
	// Predicates.
	for {
		ok, err := p.acceptSymbol("[")
		if err != nil {
			return pathStep{}, err
		}
		if !ok {
			break
		}
		pred, err := p.parseExpr()
		if err != nil {
			return pathStep{}, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return pathStep{}, err
		}
		st.preds = append(st.preds, pred)
	}
	return st, nil
}

// parsePrimary parses a primary expression.
func (p *parser) parsePrimary() (Expr, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tokString:
		p.lx.next()
		return &literal{val: [1]Item{t.text}}, nil
	case tokInteger:
		p.lx.next()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.lx.errorf(t.pos, "bad integer literal %q", t.text)
		}
		return &literal{val: [1]Item{i}}, nil
	case tokDecimal:
		p.lx.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.lx.errorf(t.pos, "bad decimal literal %q", t.text)
		}
		return &literal{val: [1]Item{f}}, nil
	case tokVar:
		p.lx.next()
		return &varRef{name: t.text}, nil
	case tokSymbol:
		switch t.text {
		case ".":
			p.lx.next()
			return &ctxItemExpr{}, nil
		case "(":
			p.lx.next()
			// Possibly the empty sequence "()".
			nt, err := p.lx.peek(0)
			if err != nil {
				return nil, err
			}
			if nt.kind == tokSymbol && nt.text == ")" {
				p.lx.next()
				return &seqExpr{}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "<":
			return p.parseDirectCtor(t)
		}
	case tokName:
		t1, err := p.lx.peek(1)
		if err != nil {
			return nil, err
		}
		if t1.kind == tokSymbol && t1.text == "(" {
			p.lx.next()
			p.lx.next()
			var args []Expr
			nt, err := p.lx.peek(0)
			if err != nil {
				return nil, err
			}
			if !(nt.kind == tokSymbol && nt.text == ")") {
				for {
					a, err := p.parseExprSingle()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					ok, err := p.acceptSymbol(",")
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			name := strings.TrimPrefix(strings.TrimPrefix(t.text, "fn:"), "local:")
			return &funcCall{name: name, args: args}, nil
		}
		// Computed constructors.
		switch t.text {
		case "element":
			return p.parseComputedElem()
		case "attribute":
			return p.parseComputedAttr()
		case "text":
			if t1.kind == tokSymbol && t1.text == "{" {
				p.lx.next()
				p.lx.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol("}"); err != nil {
					return nil, err
				}
				return &textCtor{expr: e}, nil
			}
		}
	}
	return nil, p.lx.errorf(t.pos, "unexpected %s %q", t.kind, t.text)
}

func (p *parser) parseComputedElem() (Expr, error) {
	p.lx.next() // "element"
	t, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	ctor := &elemCtor{}
	if t.kind == tokName {
		p.lx.next()
		ctor.name = t.text
	} else if t.kind == tokSymbol && t.text == "{" {
		p.lx.next()
		ne, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("}"); err != nil {
			return nil, err
		}
		ctor.nameExpr = ne
	} else {
		return nil, p.lx.errorf(t.pos, "expected element name")
	}
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	nt, err := p.lx.peek(0)
	if err != nil {
		return nil, err
	}
	if !(nt.kind == tokSymbol && nt.text == "}") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ctor.content = []Expr{e}
	}
	if err := p.expectSymbol("}"); err != nil {
		return nil, err
	}
	return ctor, nil
}

func (p *parser) parseComputedAttr() (Expr, error) {
	p.lx.next() // "attribute"
	t, err := p.lx.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokName {
		return nil, p.lx.errorf(t.pos, "expected attribute name")
	}
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("}"); err != nil {
		return nil, err
	}
	return &attrExpr{name: t.text, val: e}, nil
}

// --- token helpers ---

func (p *parser) acceptSymbol(s string) (bool, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return false, err
	}
	if t.kind == tokSymbol && t.text == s {
		p.lx.next()
		return true, nil
	}
	return false, nil
}

func (p *parser) expectSymbol(s string) error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	if t.kind != tokSymbol || t.text != s {
		return p.lx.errorf(t.pos, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) acceptName(s string) (bool, error) {
	t, err := p.lx.peek(0)
	if err != nil {
		return false, err
	}
	if t.kind == tokName && t.text == s {
		p.lx.next()
		return true, nil
	}
	return false, nil
}

func (p *parser) expectName(s string) error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	if t.kind != tokName || t.text != s {
		return p.lx.errorf(t.pos, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) expectVar() (string, error) {
	t, err := p.lx.next()
	if err != nil {
		return "", err
	}
	if t.kind != tokVar {
		return "", p.lx.errorf(t.pos, "expected variable, got %q", t.text)
	}
	return t.text, nil
}

func (p *parser) expectNameOrStar() (string, error) {
	t, err := p.lx.next()
	if err != nil {
		return "", err
	}
	if t.kind == tokName {
		return t.text, nil
	}
	if t.kind == tokSymbol && t.text == "*" {
		return "*", nil
	}
	return "", p.lx.errorf(t.pos, "expected name or *, got %q", t.text)
}
