package xq

import "sync"

// Expr is a compiled XQuery expression node. Every expression evaluates to
// a Sequence.
type Expr interface {
	eval(c *evalCtx) (Sequence, error)
}

// seqExpr is the comma operator: sequence concatenation.
type seqExpr struct{ parts []Expr }

// flworClause is one for/let clause of a FLWOR expression.
type flworClause struct {
	isLet   bool
	varName string
	posVar  string // "at $i" positional variable; for-clauses only
	expr    Expr
}

// orderSpec is one "order by" key.
type orderSpec struct {
	key        Expr
	descending bool
	emptyLeast bool
}

// flworExpr is a FLWOR expression: for/let clauses, optional where,
// optional stable order by, and a return expression.
type flworExpr struct {
	clauses []flworClause
	where   Expr
	orderBy []orderSpec
	ret     Expr

	joinOnce sync.Once // guards join
	join     *eqProbe  // the where-join on the last for clause, if any (setwise.go)
}

// quantExpr is "some/every $v in E satisfies P".
type quantExpr struct {
	every bool
	binds []flworClause // isLet always false
	sat   Expr
}

// ifExpr is "if (C) then T else E".
type ifExpr struct{ cond, then, els Expr }

// orExpr / andExpr are short-circuit boolean connectives. conj holds the
// closures compilePred built for an andExpr's conjuncts (nil if any is
// outside the closure grammar), so the planner can push single conjuncts
// down without compiling them again.
type orExpr struct{ args []Expr }
type andExpr struct {
	args []Expr
	conj []NodePred
}

// compExpr is a general (=, <, ...) or value (eq, lt, ...) comparison.
type compExpr struct {
	op      string
	general bool
	l, r    Expr
}

// rangeExpr is the integer range constructor "l to r".
type rangeExpr struct{ l, r Expr }

// arithExpr is +, -, *, div, idiv, mod.
type arithExpr struct {
	op   string
	l, r Expr
}

// unaryExpr is unary minus (and the no-op unary plus).
type unaryExpr struct {
	neg bool
	x   Expr
}

// unionExpr is the node-set union operator "|".
type unionExpr struct{ args []Expr }

// intersectExceptExpr is "intersect" (both = true) or "except".
type intersectExceptExpr struct {
	intersect bool
	l, r      Expr
}

// seqType is a parsed sequence type like "xs:integer*" or "element()?".
type seqType struct {
	name string // "integer", "decimal", "double", "string", "boolean",
	// "untypedAtomic", "anyAtomicType", "item", "node", "element", "text",
	// "comment", "document-node", "empty-sequence"
	occurrence byte // 0 (exactly one), '?', '*', '+'
}

// instanceOfExpr is "E instance of T".
type instanceOfExpr struct {
	x Expr
	t seqType
}

// castExpr is "E cast as T" (castable = false) or "E castable as T".
type castExpr struct {
	x        Expr
	t        seqType
	castable bool
}

// concatExpr is the string concatenation operator "||".
type concatExpr struct{ l, r Expr }

// axis enumerates the supported axes (abbreviated and explicit syntax).
type axis int

const (
	axisChild axis = iota
	axisDescOrSelf
	axisAttribute
	axisSelf
	axisParent
	axisDescendant
	axisAncestor
	axisAncestorOrSelf
	axisFollowingSibling
	axisPrecedingSibling
)

// axisByName maps explicit axis syntax (axis::test) to axes.
var axisByName = map[string]axis{
	"child":              axisChild,
	"descendant":         axisDescendant,
	"descendant-or-self": axisDescOrSelf,
	"attribute":          axisAttribute,
	"self":               axisSelf,
	"parent":             axisParent,
	"ancestor":           axisAncestor,
	"ancestor-or-self":   axisAncestorOrSelf,
	"following-sibling":  axisFollowingSibling,
	"preceding-sibling":  axisPrecedingSibling,
}

// userFunc is a user-declared function from the query prolog.
type userFunc struct {
	name   string
	params []string
	body   Expr
}

// varDecl is a prolog variable declaration; external declarations must be
// bound by the caller.
type varDecl struct {
	name     string
	external bool
	init     Expr
}

// testKind is what a node test selects, resolved at parse time.
type testKind uint8

const (
	testName     testKind = iota // QName, on the axis' principal node kind
	testAnyName                  // "*", any node of the principal kind
	testNode                     // node()
	testText                     // text()
	testComment                  // comment()
	testElement                  // element()
	testDocument                 // document-node()
)

// nodeTest matches nodes on an axis (see matchTest).
type nodeTest struct {
	kind testKind
	name string // the QName of a testName; "*" for testAnyName
}

// nameTest is the node test for a name or "*".
func nameTest(name string) nodeTest {
	if name == "*" {
		return nodeTest{kind: testAnyName, name: name}
	}
	return nodeTest{name: name}
}

// pathStep is one step of a path expression: either an axis step or a
// filter step (a primary expression filtered by predicates).
type pathStep struct {
	axis    axis
	test    nodeTest
	primary Expr // non-nil for filter steps; axis/test ignored then
	preds   []Expr
	// cpreds is the closure form of preds, one per predicate, built by
	// pathExpr.compiled: nil when the step has none or any is outside the
	// closure grammar (plan.go), and the step's predicates are interpreted.
	cpreds []NodePred
}

// walkable reports whether WalkPlan can take the step: a child or
// attribute name test whose predicates, if any, all compiled.
func (st *pathStep) walkable() bool {
	return st.primary == nil && (st.axis == axisChild || st.axis == axisAttribute) &&
		st.test.kind <= testAnyName && len(st.cpreds) == len(st.preds)
}

// pathExpr is a path expression. If absolute, evaluation starts at the root
// of the context node; if doubleSlash, a descendant-or-self step is
// prepended.
type pathExpr struct {
	absolute    bool
	doubleSlash bool
	steps       []pathStep
	compileOnce sync.Once // guards the steps' cpreds, invariant and probe

	// What set-at-a-time evaluation (setwise.go) makes of the path: it is
	// invariant when its value depends on nothing but its root, and has a
	// probe when only a last predicate `rel = $v...` stands in the way.
	invariant bool
	probe     *eqProbe
}

// compiled returns the steps with their predicates compiled to closures,
// compiling them on first use: once per compiled Query, whether the
// interpreter or the planner gets here first.
func (e *pathExpr) compiled() []pathStep {
	e.compileOnce.Do(func() {
		for i := range e.steps {
			if st := &e.steps[i]; st.primary == nil {
				st.cpreds = compilePreds(st.preds)
			}
		}
		e.analyzeSet()
	})
	return e.steps
}

// varRef references a bound variable.
type varRef struct{ name string }

// literal is a constant atomic value, held as the one-item sequence it
// evaluates to (eval returns val[:], so evaluating allocates nothing and
// an append to the result cannot reach the literal).
type literal struct{ val [1]Item }

// ctxItemExpr is ".".
type ctxItemExpr struct{}

// funcCall calls a built-in function.
type funcCall struct {
	name string
	args []Expr
}

// attrPart is a fragment of an attribute value template: either raw text
// (expr == nil) or an embedded expression.
type attrPart struct {
	text string
	expr Expr
}

// attrCtor constructs one attribute of a direct element constructor.
type attrCtor struct {
	name  string
	parts []attrPart
}

// elemCtor is a direct or computed element constructor. For direct
// constructors name is static; for computed ones nameExpr yields the name.
type elemCtor struct {
	name     string
	nameExpr Expr
	attrs    []attrCtor
	content  []Expr
}

// textCtor is a text{...} constructor or literal text inside an element
// constructor (expr == nil, text used verbatim).
type textCtor struct {
	text string
	expr Expr
}
