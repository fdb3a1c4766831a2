// The predicate engine and discovery-query planning.
//
// One closure compiler serves both evaluators. compilePred turns a path
// step's predicate into a closure over document nodes when it is inside
// the closure grammar: and/or over general `=` comparisons between a
// relative child/attribute name-step path and a string or numeric literal,
// and bare relative paths (existence tests), the steps of those paths
// predicated by the same grammar. Every form is boolean-valued and cannot
// raise. Each predicate compiles at most once per compiled Query
// (pathExpr.compiled), and WalkPlan is the one walker of child/attribute
// steps. The interpreter (eval.go) filters any axis step's candidates
// through the closures and walks runs of such steps in one pass, metering
// one step per node tested; predicates outside the grammar (positional,
// position()/last(), variables, function calls, value and ordering
// comparisons) keep the general AST interpretation.
//
// The planner recognizes the query family that dominates registry traffic,
//
//	/tupleset/tuple[P1][P2].../step/step...
//
// with every predicate inside the grammar and every trailing step a
// child-element or attribute name step, so the registry can answer it
// straight from its soft-state indexes instead of evaluating over a
// materialized <tupleset>: the same closures and the same walker, run over
// single rendered tuples, unmetered. Anything else (prologs, FLWOR,
// functions, descendant axes) is not plannable and is interpreted.
package xq

import (
	"math"
	"strconv"
	"strings"

	"wsda/internal/xmldoc"
)

// NodePred is one compiled predicate closure over a document node: what
// both evaluators run instead of interpreting a predicate's AST per
// candidate. m meters an interpreted evaluation (eval.go) and is nil on
// the planned path, which by design is not charged.
type NodePred func(n *xmldoc.Node, m *meter) bool

// PlanStep is one compiled path step below the <tuple> element: a child
// element or attribute name test plus the step's compiled predicates. It
// is the parsed step itself, so planning copies and compiles nothing the
// interpreter has not.
type PlanStep = pathStep

// TuplePlan is the compiled pushdown form of a plannable discovery query.
// The executing registry turns AttrEq entries for tuple fields (link,
// type, ctx, owner) into index probes and field-equality closures; any
// other pushed attribute falls back to its compiled AttrPred. Residual
// holds the predicate closures that need the rendered <tuple> element,
// and Proj the steps projecting below it (empty: the tuple itself is the
// result).
type TuplePlan struct {
	// AttrEq maps attribute names to the (non-empty) string literal each
	// must equal, extracted from top-level conjunctive predicates.
	AttrEq map[string]string
	// AttrPred holds, for every AttrEq entry, the equivalent compiled
	// node predicate — the executor's fallback for attributes that do not
	// correspond to an indexed tuple field.
	AttrPred map[string]NodePred
	// Residual are the tuple-level predicate closures that were not
	// extracted into AttrEq.
	Residual []NodePred
	// Proj are the compiled steps below the tuple element.
	Proj []PlanStep
	// Never reports a statically contradictory plan (two different
	// equality literals for the same attribute): the result is empty.
	Never bool
}

// DiscoveryPlan returns the compiled pushdown plan for the query if its
// shape is plannable, memoizing the (possibly negative) answer on the
// query: planning runs once per compiled query, not once per evaluation.
func (q *Query) DiscoveryPlan() (*TuplePlan, bool) {
	q.planOnce.Do(func() { q.plan = buildDiscoveryPlan(q) })
	return q.plan, q.plan != nil
}

// buildDiscoveryPlan pattern-matches the compiled AST; nil means "not
// plannable, use the interpreter".
func buildDiscoveryPlan(q *Query) *TuplePlan {
	if len(q.decls) > 0 || len(q.funcs) > 0 {
		return nil
	}
	pe, ok := q.expr.(*pathExpr)
	if !ok || !pe.absolute || pe.doubleSlash || len(pe.steps) < 2 {
		return nil
	}
	steps := pe.compiled()
	s0, s1 := &steps[0], &steps[1]
	if !isChildNameStep(s0, "tupleset") || len(s0.preds) > 0 {
		return nil
	}
	if !isChildNameStep(s1, "tuple") {
		return nil
	}
	for i := 1; i < len(steps); i++ {
		if !steps[i].walkable() {
			return nil
		}
	}
	p := &TuplePlan{AttrEq: map[string]string{}, AttrPred: map[string]NodePred{}, Proj: steps[2:]}
	for i, pred := range s1.preds {
		p.addTuplePred(pred, s1.cpreds[i])
	}
	return p
}

// isChildNameStep reports whether st is a plain child::name axis step.
func isChildNameStep(st *pathStep, name string) bool {
	return st.primary == nil && st.axis == axisChild &&
		st.test.kind == testName && st.test.name == name
}

// addTuplePred folds one tuple-step predicate and its closure into the
// plan: top-level conjuncts are scanned for pushdown-eligible
// @attr = "literal" equalities; everything else is a residual closure.
func (p *TuplePlan) addTuplePred(e Expr, pred NodePred) {
	if and, ok := e.(*andExpr); ok {
		for i, a := range and.args {
			p.addTuplePred(a, and.conj[i])
		}
		return
	}
	if name, val, ok := simpleAttrEq(e); ok && val != "" {
		// A tuple attribute equal to a non-empty literal is pushdown
		// material; empty literals are not (an absent attribute and an
		// empty field are different things to the interpreter) and stay
		// residual.
		if prev, dup := p.AttrEq[name]; dup {
			if prev != val {
				p.Never = true
			}
			return
		}
		p.AttrEq[name] = val
		p.AttrPred[name] = pred
		return
	}
	p.Residual = append(p.Residual, pred)
}

// simpleAttrEq recognizes `@name = "literal"` (either operand order) with
// a plain single-attribute path and a string literal, returning the
// attribute name and literal.
func simpleAttrEq(e Expr) (name, val string, ok bool) {
	cmp, isCmp := e.(*compExpr)
	if !isCmp || !cmp.general || cmp.op != "=" {
		return "", "", false
	}
	pathSide, litSide := cmp.l, cmp.r
	if _, isLit := pathSide.(*literal); isLit {
		pathSide, litSide = litSide, pathSide
	}
	lit, isLit := litSide.(*literal)
	if !isLit {
		return "", "", false
	}
	s, isStr := lit.val[0].(string)
	if !isStr {
		return "", "", false
	}
	pp, isPath := pathSide.(*pathExpr)
	if !isPath || pp.absolute || pp.doubleSlash || len(pp.steps) != 1 {
		return "", "", false
	}
	st := &pp.steps[0]
	if st.primary != nil || st.axis != axisAttribute || st.test.kind != testName || len(st.preds) > 0 {
		return "", "", false
	}
	return st.test.name, s, true
}

// compilePred compiles one predicate expression to a node closure; nil
// reports it outside the closure grammar: and/or connectives, general `=`
// comparisons between a relative child/attribute path and an atomic
// literal, and bare relative paths (existence tests). All forms are
// boolean-valued and cannot raise, so the interpreter's positional rule
// (a numeric predicate value selects by position) and its error paths can
// never apply to a compiled predicate.
func compilePred(e Expr) NodePred {
	switch x := e.(type) {
	case *andExpr:
		x.conj = compilePreds(x.args)
		if x.conj == nil {
			return nil
		}
		return func(n *xmldoc.Node, m *meter) bool {
			for _, p := range x.conj {
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
		return compileEq(x)
	case *pathExpr:
		if steps := compileRelPath(x); steps != nil {
			return reaches(steps, nil)
		}
	}
	return nil
}

// compilePreds compiles every expression, or returns nil if any is outside
// the grammar (or there are none).
func compilePreds(args []Expr) []NodePred {
	if len(args) == 0 {
		return nil
	}
	preds := make([]NodePred, len(args))
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
func compileEq(cmp *compExpr) NodePred {
	if !cmp.general || cmp.op != "=" {
		return nil
	}
	pathSide, litSide := cmp.l, cmp.r
	if _, isLit := pathSide.(*literal); isLit {
		pathSide, litSide = litSide, pathSide
	}
	lit, isLit := litSide.(*literal)
	pp, isPath := pathSide.(*pathExpr)
	if !isLit || !isPath {
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
// nothing found.
func reaches(steps []PlanStep, match func(string) bool) NodePred {
	return func(n *xmldoc.Node, m *meter) bool {
		found := false
		WalkPlan(n, steps, m, func(leaf *xmldoc.Node) bool {
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
func compileRelPath(pe *pathExpr) []PlanStep {
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

// WalkPlan is the one walker of child/attribute name steps: it visits
// every node reached from n through steps, depth-first and therefore in
// document order and without duplicates (with no steps, n itself). visit
// returning false stops the walk; WalkPlan reports whether the walk ran
// to completion. It reads only Children, Attrs, Name and Data, never
// Parent, so it is at home in shared subtrees. With a meter, every node
// tested against a predicate is charged one step per predicate, nested
// predicates included, and the walk stops once the budget is spent; the
// caller then finds the error in m.err.
func WalkPlan(n *xmldoc.Node, steps []PlanStep, m *meter, visit func(*xmldoc.Node) bool) bool {
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
			if !WalkPlan(c, steps[1:], m, visit) {
				return false
			}
		} else if m.err() != nil {
			return false
		}
	}
	return true
}

// holdAll runs compiled predicates over one candidate, charging the meter
// one step each; a spent budget fails the candidate.
func holdAll(preds []NodePred, n *xmldoc.Node, m *meter) bool {
	for _, p := range preds {
		if !m.tick() || !p(n, m) {
			return false
		}
	}
	return true
}
