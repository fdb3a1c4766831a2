// The predicate engine and the tuple head.
//
// One closure compiler serves every evaluation. compilePred turns a path
// step's predicate into a closure over document nodes when it is inside
// the closure grammar: and/or over general comparisons, any of the six
// operators, between a string or numeric literal and either a relative
// child/attribute name-step path (existential over its leaves) or
// number() of one, and bare relative paths (existence tests), the steps
// of those paths predicated by the same grammar. number() over two nodes
// raises its own error through the meter; such a predicate compiles only
// where every candidate is tested (raises). Each compiles at most once
// per Query (pathExpr.compiled), and walkPlan is the one walker of
// child/attribute steps. The interpreter (eval.go) filters any axis
// step's candidates through the closures and walks runs of such steps in
// one pass, metering one step per node tested; anything else (positions,
// variables, other functions, value comparisons) is interpreted. A
// FLWOR's where conjuncts and order-by keys over the node its last for
// clause binds compile the same way, read from $v (bindPlan).
//
// The query family that dominates registry traffic,
//
//	/tupleset/tuple[P1][P2].../step/step...
//
// with every predicate inside the grammar and every step from tuple on a
// child-element or attribute name step, reads nothing of its document but
// the children of the root. TupleHead recognises it, and Eval can then take
// those children from Options.Tuples, a source that may hand over fewer
// members than the document holds (the registry's soft-state indexes) but
// never different ones. Each member is tested and walked exactly as in a
// document evaluation, by the same closures under the same meter, and its
// results leave as they are produced. Anything else (prologs, FLWOR,
// functions, descendant axes) has no tuple head and needs a document.
package xq

import (
	"errors"
	"math"
	"slices"
	"strings"

	"wsda/internal/xmldoc"
)

// nodePred is one compiled predicate closure over a document node: what an
// evaluation runs instead of interpreting a predicate's AST per candidate.
// m is the evaluation's step meter.
type nodePred func(n *xmldoc.Node, m *meter) bool

// TupleHead is what a query of the discovery shape asks of the tuples it
// reads, as plain data a tuple source can narrow its members by (see
// Options.Tuples). The evaluation still tests every member it is handed
// against every predicate of the tuple step.
type TupleHead struct {
	// Eqs are the tuple step's top-level conjuncts that equate an
	// attribute to a non-empty string literal, one per attribute. The
	// slice is shared by every caller and must not be modified.
	Eqs []AttrEq
	// Other counts the tuple step's remaining top-level conjuncts.
	Other int
	// Never reports two different literals for one attribute: the result
	// is statically empty.
	Never bool
	// Below reports steps past the tuple step: the query selects inside
	// its members, not the members themselves.
	Below bool
}

// AttrEq is one conjunct @Attr = "Value" of a tuple head.
type AttrEq struct {
	Attr  string // the attribute's name
	Value string // the literal it must equal, never empty
}

// TupleHead returns the query's tuple head if it has the discovery shape,
// as Compile recognised it.
func (q *Query) TupleHead() (TupleHead, bool) { return q.head, q.hasHead }

// tupleHeadOf pattern-matches the compiled AST.
func tupleHeadOf(q *Query) (h TupleHead, ok bool) {
	pe, ok := q.expr.(*pathExpr)
	if !ok || len(q.decls) > 0 || len(q.funcs) > 0 || !pe.absolute || pe.doubleSlash || len(pe.steps) < 2 {
		return h, false
	}
	steps := pe.compiled()
	for i := range steps {
		if !steps[i].walkable() {
			return h, false
		}
	}
	if steps[0].axis != axisChild || steps[0].test != (nodeTest{name: "tupleset"}) || len(steps[0].preds) > 0 ||
		steps[1].axis != axisChild || steps[1].test != (nodeTest{name: "tuple"}) {
		return h, false
	}
	h.add(&andExpr{args: steps[1].preds}) // a step's predicates are one conjunction
	h.Below = len(steps) > 2
	return h, true
}

// add folds one tuple-step predicate into the head: its top-level
// conjuncts of the form @name = "literal" go to Eqs, the rest count as
// Other. An empty literal stays Other, since an absent attribute and an
// empty one are different things to the evaluator.
func (h *TupleHead) add(e Expr) {
	if and, ok := e.(*andExpr); ok {
		for _, a := range and.args {
			h.add(a)
		}
		return
	}
	name, val, ok := simpleAttrEq(e)
	if !ok || val == "" {
		h.Other++
		return
	}
	for _, eq := range h.Eqs {
		if eq.Attr == name {
			h.Never = h.Never || eq.Value != val
			return
		}
	}
	h.Eqs = append(h.Eqs, AttrEq{name, val})
}

// simpleAttrEq recognizes `@name = "literal"` (either operand order) with
// a plain single-attribute path and a string literal, returning the
// attribute name and literal.
func simpleAttrEq(e Expr) (name, val string, ok bool) {
	x, op, lit, ok := cmpOperands(e)
	pp, isPath := x.(*pathExpr)
	if !ok || op != "=" || !isPath || pp.absolute || pp.doubleSlash || len(pp.steps) != 1 {
		return "", "", false
	}
	s, isStr := lit.val[0].(string)
	st := &pp.steps[0]
	if !isStr || st.primary != nil || st.axis != axisAttribute || st.test.kind != testName || len(st.preds) > 0 {
		return "", "", false
	}
	return st.test.name, s, true
}

// tupleWalk is one evaluation over Options.Tuples: the steps from tuple
// on, the evaluation's meter, and where its results go.
type tupleWalk struct {
	steps []pathStep
	m     meter
	emit  func(Item) bool
	out   Sequence
}

// evalTuples evaluates a query with a tuple head over opts.Tuples' members
// in place of the root's children. Results reach Emit as the walk produces
// them, so a consumer that stops stops the source too.
func (q *Query) evalTuples(opts *Options) (Sequence, error) {
	if !q.hasHead {
		return nil, errors.New("xq: Options.Tuples needs a query with a tuple head")
	}
	w := &tupleWalk{steps: q.expr.(*pathExpr).steps[1:], m: meter{limit: opts.MaxSteps}, emit: opts.Emit}
	opts.Tuples(w.member)
	if err := w.m.err(); err != nil {
		return nil, err
	}
	return w.out, nil
}

// member walks one member of the source from the tuple step on. false
// stops the source.
func (w *tupleWalk) member(t *xmldoc.Node) bool { return walkMember(t, w.steps, &w.m, w.deliver) }

// deliver hands one result to Emit, or buffers it.
func (w *tupleWalk) deliver(n *xmldoc.Node) bool {
	if w.emit != nil {
		return w.emit(n)
	}
	w.out = append(w.out, n)
	return true
}

// compilePred compiles one predicate expression to a node closure; nil
// reports it outside the closure grammar: and/or connectives, comparisons
// (compileCmp), and bare operand paths (existence tests). v names the
// variable whose node the closure reads: "" for a step predicate, whose
// operand paths are relative; otherwise they are written $v or $v/rel.
// Every form is boolean-valued, so the interpreter's positional rule (a
// numeric predicate value selects by position) can never apply to it.
func compilePred(e Expr, v string) nodePred {
	switch x := e.(type) {
	case *andExpr:
		preds := compilePreds(x.args, v)
		if preds == nil {
			return nil
		}
		return func(n *xmldoc.Node, m *meter) bool {
			for _, p := range preds {
				if !p(n, m) {
					return false
				}
			}
			return true
		}
	case *orExpr:
		preds := compilePreds(x.args, v)
		if preds == nil {
			return nil
		}
		return func(n *xmldoc.Node, m *meter) bool {
			for _, p := range preds {
				if p(n, m) {
					return true
				}
			}
			return false
		}
	case *compExpr:
		t := compileCmp(e, v)
		if num, holds := t.num, t.holds; num != nil {
			return func(n *xmldoc.Node, m *meter) bool { return holds(num(n, m)) }
		}
		return t.pred
	}
	if steps, ok := operand(e, v); ok {
		return reaches(steps, nil)
	}
	return nil
}

// compilePreds compiles every expression, or returns nil if any is outside
// the grammar (or there are none).
func compilePreds(args []Expr, v string) []nodePred {
	if len(args) == 0 {
		return nil
	}
	preds := make([]nodePred, len(args))
	for i, a := range args {
		if preds[i] = compilePred(a, v); preds[i] == nil {
			return nil
		}
	}
	return preds
}

// cmpTest is a compiled comparison: pred, or for number(rel) the closure
// num reading the number and holds deciding the comparison on it. As an
// order-by key (bindPlan) it is number(rel) or rel's first leaf, and from
// names the where conjunct that reads the same number, or is -1.
type cmpTest struct {
	pred  nodePred
	num   func(*xmldoc.Node, *meter) float64
	holds func(float64) bool
	rel   []pathStep
	from  int
}

// compileCmp compiles a general comparison, any of the six operators,
// between an operand and an atomic literal, replicating generalCompare:
// an operand path is existential over the string values of its leaves,
// compared as strings with a string literal and numerically, with
// fn:number coercion, with a numeric one; number(path) compares
// numerically with the literal coerced likewise. NaN satisfies only `!=`.
func compileCmp(e Expr, v string) (t cmpTest) {
	x, op, lit, ok := cmpOperands(e)
	if !ok {
		return t
	}
	mask, f := cmpMask[op], NumberValue(lit.val[0])
	if t.rel, t.num = compileNum(x, v); t.num != nil {
		t.holds = func(g float64) bool { return mask>>(numCmp(g, f)+1)&1 != 0 }
		return t
	}
	steps, ok := operand(x, v)
	if !ok {
		return t
	}
	match := func(s string) bool { return mask>>(numCmp(numberOf(s), f)+1)&1 != 0 }
	if l, isStr := lit.val[0].(string); isStr && op == "=" {
		match = func(s string) bool { return s == l }
	} else if isStr {
		match = func(s string) bool { return mask>>(strings.Compare(s, l)+1)&1 != 0 }
	}
	t.pred = reaches(steps, match)
	return t
}

// compileNum compiles number(p), p an operand path, to a closure giving
// what number() gives: NaN over no node, the leaf's value over one, and
// over more than one number()'s own error, set on the meter. A prolog's
// own number() is not this one.
func compileNum(e Expr, v string) ([]pathStep, func(*xmldoc.Node, *meter) float64) {
	f, ok := e.(*funcCall)
	if !ok || f.name != "number" || f.user || len(f.args) != 1 {
		return nil, nil
	}
	steps, ok := operand(f.args[0], v)
	if !ok {
		return nil, nil
	}
	return steps, func(n *xmldoc.Node, m *meter) float64 {
		var leaf *xmldoc.Node
		count := 0
		walkPlan(n, steps, m, func(l *xmldoc.Node) bool {
			leaf, count = l, count+1
			return true
		})
		if count == 1 {
			return numberOf(leaf.StringValue())
		}
		if count > 1 && m.err() == nil {
			m.fault = errSingleton(count)
		}
		return math.NaN()
	}
}

// cmpOperands splits a general comparison with an atomic literal on
// either side into the other operand and the operator as that operand
// sees it: `1 < @k` is `@k > 1`.
func cmpOperands(e Expr) (x Expr, op string, lit *literal, ok bool) {
	cmp, isCmp := e.(*compExpr)
	if !isCmp || !cmp.general {
		return nil, "", nil, false
	}
	if lit, ok = cmp.r.(*literal); ok {
		return cmp.l, cmp.op, lit, true
	}
	lit, ok = cmp.l.(*literal)
	return cmp.r, flipOp[cmp.op], lit, ok
}

var flipOp = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// operand returns the steps from a closure's node to the nodes e reads: e
// is a relative path inside the grammar or, with v set, $v or $v/rel.
func operand(e Expr, v string) ([]pathStep, bool) {
	if v != "" {
		name, steps, ok := varPath(e)
		return steps, ok && name == v
	}
	pe, ok := e.(*pathExpr)
	if !ok {
		return nil, false
	}
	steps := compileRelPath(pe)
	return steps, steps != nil
}

// raises reports whether a predicate may compare number() of a path, which
// raises over more than one node. Such a predicate compiles only where
// every candidate is tested, as the reference tests them: never inside
// another closure's path, which stops at its first hit, and at most once
// per path, whose walk meets candidates depth-first.
func raises(e Expr) bool {
	switch x := e.(type) {
	case *andExpr:
		return slices.ContainsFunc(x.args, raises)
	case *orExpr:
		return slices.ContainsFunc(x.args, raises)
	case *compExpr:
		_, l := x.l.(*funcCall)
		_, r := x.r.(*funcCall)
		return l || r
	}
	return false
}

// reaches is the existential closure both predicate forms share: some node
// reached from the candidate through steps has a string value that match
// accepts (nil: any node will do). An exhausted meter stops the walk with
// nothing found. The commonest leaf, one unpredicated attribute step
// (`@name = "kind"`), reads the candidate's attributes without a walk.
func reaches(steps []pathStep, match func(string) bool) nodePred {
	if len(steps) == 1 && steps[0].axis == axisAttribute && len(steps[0].preds) == 0 {
		st := &steps[0]
		return func(n *xmldoc.Node, _ *meter) bool {
			for _, a := range n.Attrs {
				if matchTest(a, &st.test, axisAttribute) && (match == nil || match(a.Data)) {
					return true
				}
			}
			return false
		}
	}
	return func(n *xmldoc.Node, m *meter) bool {
		found := false
		walkPlan(n, steps, m, func(leaf *xmldoc.Node) bool {
			found = match == nil || match(leaf.StringValue())
			return !found
		})
		return found
	}
}

// compileRelPath returns the steps of a relative child/attribute name-step
// path whose predicates all compiled and cannot raise, or nil.
func compileRelPath(pe *pathExpr) []pathStep {
	if pe.absolute || pe.doubleSlash {
		return nil
	}
	steps := pe.compiled()
	for i := range steps {
		if !steps[i].walkable() || slices.ContainsFunc(steps[i].preds, raises) {
			return nil
		}
	}
	return steps
}

// walkPlan is the one walker of child/attribute name steps: it visits
// every node reached from n through steps, depth-first and therefore in
// document order and without duplicates (with no steps, n itself). visit
// returning false stops the walk; walkPlan reports whether the walk ran
// to completion. It reads only Children, Attrs, Name and Data, never
// Parent, so it is at home in shared subtrees. Every node tested against a
// predicate is charged one step per predicate, nested predicates included,
// and the walk stops once the budget is spent; the caller then finds the
// error in m.err.
func walkPlan(n *xmldoc.Node, steps []pathStep, m *meter, visit func(*xmldoc.Node) bool) bool {
	if len(steps) == 0 {
		return visit(n)
	}
	st := &steps[0]
	nodes := n.Children
	if st.axis == axisAttribute {
		nodes = n.Attrs
	}
	for _, c := range nodes {
		if !matchTest(c, &st.test, st.axis) {
			continue
		}
		if holdAll(st.cpreds, c, m) {
			if !walkPlan(c, steps[1:], m, visit) {
				return false
			}
		} else if m.err() != nil {
			return false
		}
	}
	return true
}

// walkMember is walkPlan's loop body for one child t of the node it walks:
// t tested against steps[0] and, if it holds, walked on. It is a copy
// rather than a function walkPlan calls, because a call per child in
// walkPlan's loop slows every path walk.
func walkMember(t *xmldoc.Node, steps []pathStep, m *meter, visit func(*xmldoc.Node) bool) bool {
	st := &steps[0]
	if !matchTest(t, &st.test, st.axis) {
		return true
	}
	if holdAll(st.cpreds, t, m) {
		return walkPlan(t, steps[1:], m, visit)
	}
	return m.err() == nil
}

// holdAll runs compiled predicates over one candidate, charging the meter
// one step each; a spent budget fails the candidate.
func holdAll(preds []nodePred, n *xmldoc.Node, m *meter) bool {
	for _, p := range preds {
		if !m.tick() || !p(n, m) {
			return false
		}
	}
	return true
}

// bindPlan is the closure form of a FLWOR's where clause and order-by keys
// over the node its last for clause binds, compiled once per Query: the
// where when each of its conjuncts is inside the closure grammar with
// operands read from that variable ($v, $v/rel, number() of either), the
// keys when each is such an operand. A part that does not compile is
// interpreted.
type bindPlan struct {
	where []cmpTest // the where's conjuncts, in order
	keys  []cmpTest // one per order spec
}

// binding is what a plan reads of one binding: the node, and the number
// each of the where's number() conjuncts read from it.
type binding struct {
	plan *bindPlan
	n    *xmldoc.Node
	vals []float64
}

// compilePlan returns the FLWOR's plan, or nil when nothing compiled.
func (e *flworExpr) compilePlan() *bindPlan {
	cl := &e.clauses[len(e.clauses)-1]
	if cl.isLet || cl.posVar == cl.varName {
		return nil
	}
	p, v := &bindPlan{}, cl.varName
	for _, x := range conjuncts(e.where) {
		t := compileCmp(x, v)
		if t.num == nil {
			t.pred = compilePred(x, v)
		}
		if t.num == nil && t.pred == nil {
			p.where = nil
			break
		}
		p.where = append(p.where, t)
	}
	for _, os := range e.orderBy {
		k, ok := cmpTest{from: -1}, true
		if k.rel, k.num = compileNum(os.key, v); k.num != nil {
			text := string(memoText(nil, k.rel))
			k.from = slices.IndexFunc(p.where, func(t cmpTest) bool { return t.num != nil && string(memoText(nil, t.rel)) == text })
		} else if k.rel, ok = operand(os.key, v); !ok {
			p.keys = nil
			break
		}
		p.keys = append(p.keys, k)
	}
	if p.where == nil && p.keys == nil {
		return nil
	}
	return p
}

// holds runs the plan's where over the bound node, keeping the numbers it
// reads. false with the meter's error set: a closure raised or the budget
// ran out.
func (b *binding) holds(m *meter) bool {
	for i, t := range b.plan.where {
		ok := false
		if t.num != nil {
			b.vals[i] = t.num(b.n, m)
			ok = t.holds(b.vals[i])
		} else {
			ok = t.pred(b.n, m)
		}
		if !ok || m.err() != nil {
			return false
		}
	}
	return true
}

// key returns order-by key k of the bound node.
func (b *binding) key(k int, m *meter) sortKey {
	t := &b.plan.keys[k]
	switch {
	case t.from >= 0:
		return sortKey{num: b.vals[t.from], isNum: true}
	case t.num != nil:
		return sortKey{num: t.num(b.n, m), isNum: true}
	}
	var s sortKey
	walkPlan(b.n, t.rel, m, func(leaf *xmldoc.Node) bool {
		s.atom = leaf.StringValue()
		return false
	})
	return s
}

// conjuncts returns the top-level conjuncts of e; none when e is nil.
func conjuncts(e Expr) []Expr {
	if and, ok := e.(*andExpr); ok {
		return and.args
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}
