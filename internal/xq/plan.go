// The predicate engine and the tuple head.
//
// One closure compiler serves every evaluation. compilePred turns a path
// step's predicate into a closure over document nodes when it is inside
// the closure grammar: and/or over general `=` comparisons between a
// relative child/attribute name-step path and a string or numeric literal,
// and bare relative paths (existence tests), the steps of those paths
// predicated by the same grammar. Every form is boolean-valued and cannot
// raise. Each predicate compiles at most once per compiled Query
// (pathExpr.compiled), and walkPlan is the one walker of child/attribute
// steps. The interpreter (eval.go) filters any axis step's candidates
// through the closures and walks runs of such steps in one pass, metering
// one step per node tested; predicates outside the grammar (positional,
// position()/last(), variables, function calls, value and ordering
// comparisons) keep the general AST interpretation.
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
	"strconv"
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
	pp, lit, ok := eqOperands(e)
	if !ok || pp.absolute || pp.doubleSlash || len(pp.steps) != 1 {
		return "", "", false
	}
	s, isStr := lit.val[0].(string)
	st := &pp.steps[0]
	if !isStr || st.primary != nil || st.axis != axisAttribute || st.test.kind != testName || len(st.preds) > 0 {
		return "", "", false
	}
	return st.test.name, s, true
}

// eqOperands splits a general `=` comparison between a path and a literal,
// in either operand order.
func eqOperands(e Expr) (*pathExpr, *literal, bool) {
	cmp, ok := e.(*compExpr)
	if !ok || !cmp.general || cmp.op != "=" {
		return nil, nil, false
	}
	pathSide, litSide := cmp.l, cmp.r
	if _, isLit := pathSide.(*literal); isLit {
		pathSide, litSide = litSide, pathSide
	}
	pp, isPath := pathSide.(*pathExpr)
	lit, isLit := litSide.(*literal)
	return pp, lit, isPath && isLit
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
// reports it outside the closure grammar: and/or connectives, general `=`
// comparisons between a relative child/attribute path and an atomic
// literal, and bare relative paths (existence tests). All forms are
// boolean-valued and cannot raise, so the interpreter's positional rule
// (a numeric predicate value selects by position) and its error paths can
// never apply to a compiled predicate.
func compilePred(e Expr) nodePred {
	switch x := e.(type) {
	case *andExpr:
		preds := compilePreds(x.args)
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
		preds := compilePreds(x.args)
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
		return compileEq(e)
	case *pathExpr:
		if steps := compileRelPath(x); steps != nil {
			return reaches(steps, nil)
		}
	}
	return nil
}

// compilePreds compiles every expression, or returns nil if any is outside
// the grammar (or there are none).
func compilePreds(args []Expr) []nodePred {
	if len(args) == 0 {
		return nil
	}
	preds := make([]nodePred, len(args))
	for i, a := range args {
		if preds[i] = compilePred(a); preds[i] == nil {
			return nil
		}
	}
	return preds
}

// compileEq compiles a general `=` comparison between a relative path and
// an atomic literal into an existential closure, replicating the
// interpreter's general-comparison coercion: node string values compare
// as strings against string literals and numerically against numeric
// literals (non-numeric node text then compares unequal, like NaN).
func compileEq(e Expr) nodePred {
	pp, lit, ok := eqOperands(e)
	if !ok {
		return nil
	}
	var match func(string) bool
	switch v := lit.val[0].(type) {
	case string:
		match = func(s string) bool { return s == v }
	case int64:
		match = numericMatch(float64(v))
	case float64:
		match = numericMatch(v)
	default:
		return nil
	}
	if steps := compileRelPath(pp); steps != nil {
		return reaches(steps, match)
	}
	return nil
}

// reaches is the existential closure both predicate forms share: some node
// reached from the candidate through steps has a string value that match
// accepts (nil: any node will do). An exhausted meter stops the walk with
// nothing found. The commonest leaf, one unpredicated attribute step
// (`@name = "kind"`), reads the candidate's attributes without a walk.
func reaches(steps []pathStep, match func(string) bool) nodePred {
	if st := &steps[0]; len(steps) == 1 && st.axis == axisAttribute && len(st.preds) == 0 {
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

// numericMatch compares a node's string value against a numeric literal
// with fn:number coercion; unparsable (or NaN) values compare unequal.
func numericMatch(f float64) func(string) bool {
	return func(s string) bool {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		return err == nil && !math.IsNaN(v) && v == f
	}
}

// compileRelPath returns the steps of a relative child/attribute name-step
// path whose predicates all compiled, or nil.
func compileRelPath(pe *pathExpr) []pathStep {
	if pe.absolute || pe.doubleSlash {
		return nil
	}
	steps := pe.compiled()
	for i := range steps {
		if !steps[i].walkable() {
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
