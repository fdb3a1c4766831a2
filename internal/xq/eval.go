package xq

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"wsda/internal/xmldoc"
)

// env is a lexically scoped variable environment (immutable linked list).
type env struct {
	name   string
	val    Sequence
	parent *env
}

func (e *env) lookup(name string) (Sequence, bool) {
	for ; e != nil; e = e.parent {
		if e.name == name {
			return e.val, true
		}
	}
	return nil, false
}

// evalCtx is the dynamic evaluation context.
type evalCtx struct {
	item Item // context item (nil if absent)
	pos  int  // context position (1-based)
	size int  // context size
	vars *env
	// emit, when non-nil, receives items produced by the top-level FLWOR
	// return clause as soon as they are computed (pipelined evaluation,
	// thesis Ch. 6.5). It may return false to abort evaluation early.
	emit func(Item) bool
	run  *evalRun // the evaluation's step budget and memos, shared by every derived context

	// general makes path steps ignore their compiled predicates and
	// interpret them all: the reference evaluation the differential tests
	// hold the closures to. Only _test.go files can set it.
	general bool

	// funcs are the user-declared functions of the query prolog; globals
	// the prolog-declared variable bindings visible inside function bodies.
	funcs   map[string]*userFunc
	globals *env
	depth   int // user-function call depth

	// shared is non-nil when the context document's root element lists
	// parentless shared subtrees (see shared.go).
	shared *sharedKids
}

// maxCallDepth bounds user-function recursion to keep runaway queries from
// exhausting the goroutine stack.
const maxCallDepth = 1024

// errAborted is returned internally when an emit callback stops evaluation.
var errAborted = fmt.Errorf("xq: evaluation aborted by consumer")

func (c *evalCtx) withVar(name string, val Sequence) *evalCtx {
	cc := *c
	cc.vars = &env{name: name, val: val, parent: c.vars}
	cc.emit = nil
	return &cc
}

func (c *evalCtx) withItem(item Item, pos, size int) *evalCtx {
	cc := *c
	cc.item, cc.pos, cc.size = item, pos, size
	cc.emit = nil
	return &cc
}

// evalRun is what lives and dies with one Eval call: its step budget, its
// own memo and the shared one it reads and fills (setwise.go). Never on the
// Query, which is evaluated concurrently over different documents.
type evalRun struct {
	meter
	own    Memo        // private; its map is made on first use: most evaluations memoise nothing
	shared *Memo       // Options.Memo, bound to the context document's root; nil without one
	counts *MemoCounts // Options.MemoCounts, what is done with shared; set with it
	held   func()      // Options.Held of a top-level FLWOR; nil otherwise
}

// meter is the step budget of one evaluation (Options.MaxSteps; limit 0 is
// unlimited), over a document or over a tuple source alike. A step is one
// FLWOR tuple, one quantifier binding or one node tested against one
// predicate, interpreted or compiled, at any nesting depth. Compiled
// closures carry it as a parameter, and the error one raises (fault: only
// number() over several nodes does) stops the evaluation like a spent
// budget.
type meter struct {
	steps, limit int
	fault        error
}

// tick charges one step and reports whether the budget still holds.
func (m *meter) tick() bool { return m.charge(1) }

// charge is tick for n steps at once.
func (m *meter) charge(n int) bool {
	m.steps += n
	return m.fault == nil && (m.limit <= 0 || m.steps <= m.limit)
}

// err is the closures' error, or the step-limit error once the budget is
// spent: closures cannot return one, so their callers ask here after
// running them.
func (m *meter) err() error {
	if m.fault != nil {
		return m.fault
	}
	if m.limit > 0 && m.steps > m.limit {
		return fmt.Errorf("xq: evaluation exceeded %d steps", m.limit)
	}
	return nil
}

// tick accounts one unit of evaluation work and enforces the step limit.
func (c *evalCtx) tick() error {
	if c.run.tick() {
		return nil
	}
	return c.run.err()
}

func (e *seqExpr) eval(c *evalCtx) (Sequence, error) {
	var out Sequence
	for _, p := range e.parts {
		v, err := p.eval(c)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (e *flworExpr) eval(c *evalCtx) (Sequence, error) {
	emit := c.emit
	cc := *c
	cc.emit = nil
	if len(e.orderBy) > 0 {
		return e.evalOrdered(&cc, emit)
	}
	var out Sequence
	err := e.tuples(&cc, func(ci *evalCtx, _ *binding) error {
		v, err := e.ret.eval(ci)
		if err != nil || emit == nil {
			out = append(out, v...)
			return err
		}
		for _, it := range v {
			if !emit(it) {
				return errAborted
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// whereHolds evaluates the optional where clause.
func (e *flworExpr) whereHolds(ci *evalCtx) (bool, error) {
	if e.where == nil {
		return true, nil
	}
	v, err := e.where.eval(ci)
	if err != nil {
		return false, err
	}
	return EffectiveBool(v)
}

// tuples enumerates the FLWOR's tuples, charging one step for the empty
// tuple and one per clause binding, and calls keep with each one the where
// clause keeps. When the FLWOR has a plan (plan.go) and its last for clause
// binds a node, keep is handed that binding, and a compiled where tests the
// node before any context is made for it.
func (e *flworExpr) tuples(c *evalCtx, keep func(*evalCtx, *binding) error) error {
	var b *binding
	if p := e.analyzed().plan; p != nil && !c.general {
		b = &binding{plan: p, vals: make([]float64, len(p.where)), cols: make([]keyCol, len(p.cols))}
	}
	var run func(ci *evalCtx, i int, bound *binding) error
	run = func(ci *evalCtx, i int, bound *binding) error {
		if i == len(e.clauses) {
			if bound == nil || bound.plan.where == nil {
				if ok, err := e.whereHolds(ci); err != nil || !ok {
					return err
				}
			}
			return keep(ci, bound)
		}
		cl := &e.clauses[i]
		seq, list, err := e.forSource(ci, i)
		if err != nil {
			return err
		}
		last := b != nil && i == len(e.clauses)-1
		if last {
			b.columns(c.run, list)
		}
		if cl.isLet {
			if err := ci.tick(); err != nil {
				return err
			}
			return run(ci.withVar(cl.varName, seq), i+1, nil)
		}
		child := ci.withVar(cl.varName, nil) // rebound per item: nothing keeps a context
		for idx, it := range seq {
			if err := ci.tick(); err != nil {
				return err
			}
			var bound *binding
			if n, ok := it.(*xmldoc.Node); ok && last {
				if b.n, b.at, bound = n, idx, b; b.plan.where != nil && !b.holds(&c.run.meter) {
					if err := c.run.err(); err != nil {
						return err
					}
					continue
				}
			}
			next := child
			if child.vars.val = seq[idx : idx+1 : idx+1]; cl.posVar != "" {
				next = child.withVar(cl.posVar, Singleton(int64(idx+1)))
			}
			if err := run(next, i+1, bound); err != nil {
				return err
			}
		}
		if last && list.set != nil {
			b.install(c.run, list)
		}
		return nil
	}
	if err := c.tick(); err != nil {
		return err
	}
	return run(c, 0, nil)
}

// evalOrdered materializes all FLWOR tuples, sorts them stably by the
// order-by keys, then concatenates (and optionally emits, held) the results.
func (e *flworExpr) evalOrdered(c *evalCtx, emit func(Item) bool) (Sequence, error) {
	var tuples []Sequence
	var keys []sortKey // len(e.orderBy) per tuple
	err := e.tuples(c, func(ci *evalCtx, b *binding) error {
		for k := range e.orderBy {
			if b != nil && b.plan.keys != nil {
				keys = append(keys, b.key(k, &c.run.meter))
				continue
			}
			kv, err := e.orderBy[k].key.eval(ci)
			if err != nil {
				return err
			}
			var it Item
			if len(kv) > 0 {
				it = atomOf(kv[0])
			}
			keys = append(keys, keyOf(it))
		}
		if err := c.run.err(); err != nil { // a compiled key raised
			return err
		}
		v, err := e.ret.eval(ci)
		tuples = append(tuples, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	nk := len(e.orderBy)
	idx := make([]int, len(tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]*nk:], keys[idx[b]*nk:]
		for k := range e.orderBy {
			if cmp := compareKeys(&ka[k], &kb[k], &e.orderBy[k]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	if emit != nil && c.run.held != nil {
		c.run.held()
	}
	var res Sequence
	for _, i := range idx {
		if emit != nil {
			for _, it := range tuples[i] {
				if !emit(it) {
					return nil, errAborted
				}
			}
			continue
		}
		res = append(res, tuples[i]...)
	}
	return res, nil
}

// sortKey is one order-by key of one tuple: a number, held unboxed, or
// any other atomic value, nil for the empty sequence.
type sortKey struct {
	atom  Item
	num   float64
	isNum bool
}

// keyOf is the sort key of an atomized value.
func keyOf(it Item) sortKey {
	if f, ok := it.(float64); ok {
		return sortKey{num: f, isNum: true}
	}
	return sortKey{atom: it}
}

// item is the key as compareAtomic takes it.
func (k *sortKey) item() Item {
	if k.isNum {
		return k.num
	}
	return k.atom
}

// rank sets the empty sequence (2) and NaN (1) apart from every other key
// (0).
func (k *sortKey) rank() int {
	switch {
	case k.isNum && math.IsNaN(k.num):
		return 1
	case !k.isNum && k.atom == nil:
		return 2
	}
	return 0
}

// compareKeys compares two order-by keys under the given spec. The empty
// sequence is the least value or the greatest, as the spec says, and NaN
// sorts next to it, equal to itself: empty least orders () < NaN < every
// number. The direction then applies to them like to any other value.
func compareKeys(a, b *sortKey, spec *orderSpec) int {
	ra, rb := a.rank(), b.rank()
	cmp := ra - rb
	if spec.emptyLeast {
		cmp = -cmp
	}
	if ra == 0 && rb == 0 {
		if a.isNum && b.isNum {
			cmp = numCmp(a.num, b.num)
		} else if c, err := compareAtomic(a.item(), b.item()); err == nil && c != 2 {
			cmp = c
		}
	}
	if spec.descending {
		cmp = -cmp
	}
	return cmp
}

// errDecided stops a quantifier at the first binding that decides it.
var errDecided = errors.New("xq: quantifier decided")

func (e *quantExpr) eval(c *evalCtx) (Sequence, error) {
	err := e.fl.tuples(c, func(ci *evalCtx, _ *binding) error {
		v, err := e.fl.ret.eval(ci)
		if err != nil {
			return err
		}
		ok, err := EffectiveBool(v)
		if err == nil && ok != e.every {
			err = errDecided
		}
		return err
	})
	if err == errDecided {
		return boolSeq(!e.every), nil
	}
	if err != nil {
		return nil, err
	}
	return boolSeq(e.every), nil
}

func (e *ifExpr) eval(c *evalCtx) (Sequence, error) {
	v, err := e.cond.eval(c)
	if err != nil {
		return nil, err
	}
	ok, err := EffectiveBool(v)
	if err != nil {
		return nil, err
	}
	if ok {
		return e.then.eval(c)
	}
	return e.els.eval(c)
}

func (e *orExpr) eval(c *evalCtx) (Sequence, error) {
	for _, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		ok, err := EffectiveBool(v)
		if err != nil {
			return nil, err
		}
		if ok {
			return seqTrue, nil
		}
	}
	return seqFalse, nil
}

func (e *andExpr) eval(c *evalCtx) (Sequence, error) {
	for _, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		ok, err := EffectiveBool(v)
		if err != nil {
			return nil, err
		}
		if !ok {
			return seqFalse, nil
		}
	}
	return seqTrue, nil
}

func (e *compExpr) eval(c *evalCtx) (Sequence, error) {
	l, err := e.l.eval(c)
	if err != nil {
		return nil, err
	}
	r, err := e.r.eval(c)
	if err != nil {
		return nil, err
	}
	if e.general {
		ok, err := generalCompare(e.op, l, r)
		if err != nil {
			return nil, err
		}
		return boolSeq(ok), nil
	}
	return valueCompare(e.op, l, r)
}

func (e *rangeExpr) eval(c *evalCtx) (Sequence, error) {
	l, err := evalSingletonInt(e.l, c)
	if err != nil {
		return nil, err
	}
	r, err := evalSingletonInt(e.r, c)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil || *l > *r {
		return Empty, nil
	}
	n := *r - *l + 1
	if n > 10_000_000 {
		return nil, fmt.Errorf("xq: range %d to %d too large", *l, *r)
	}
	out := make(Sequence, 0, n)
	for i := *l; i <= *r; i++ {
		out = append(out, i)
	}
	return out, nil
}

func evalSingletonInt(e Expr, c *evalCtx) (*int64, error) {
	v, err := e.eval(c)
	if err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return nil, nil
	}
	f := NumberValue(Atomize(v)[0])
	if math.IsNaN(f) {
		return nil, fmt.Errorf("xq: range bound is not a number")
	}
	i := int64(f)
	return &i, nil
}

func (e *arithExpr) eval(c *evalCtx) (Sequence, error) {
	lv, err := e.l.eval(c)
	if err != nil {
		return nil, err
	}
	rv, err := e.r.eval(c)
	if err != nil {
		return nil, err
	}
	if len(lv) == 0 || len(rv) == 0 {
		return Empty, nil
	}
	la, ra := Atomize(lv), Atomize(rv)
	if len(la) != 1 || len(ra) != 1 {
		return nil, fmt.Errorf("xq: arithmetic on non-singleton sequence")
	}
	li, lok := la[0].(int64)
	ri, rok := ra[0].(int64)
	if lok && rok {
		switch e.op {
		case "+":
			return Singleton(li + ri), nil
		case "-":
			return Singleton(li - ri), nil
		case "*":
			return Singleton(li * ri), nil
		case "idiv":
			if ri == 0 {
				return nil, fmt.Errorf("xq: integer division by zero")
			}
			return Singleton(li / ri), nil
		case "mod":
			if ri == 0 {
				return nil, fmt.Errorf("xq: modulo by zero")
			}
			return Singleton(li % ri), nil
		case "div":
			if ri == 0 {
				return nil, fmt.Errorf("xq: division by zero")
			}
			return Singleton(float64(li) / float64(ri)), nil
		}
	}
	lf, rf := NumberValue(la[0]), NumberValue(ra[0])
	if math.IsNaN(lf) || math.IsNaN(rf) {
		return nil, fmt.Errorf("xq: arithmetic on non-numeric value")
	}
	switch e.op {
	case "+":
		return Singleton(lf + rf), nil
	case "-":
		return Singleton(lf - rf), nil
	case "*":
		return Singleton(lf * rf), nil
	case "div":
		if rf == 0 {
			return nil, fmt.Errorf("xq: division by zero")
		}
		return Singleton(lf / rf), nil
	case "idiv":
		if rf == 0 {
			return nil, fmt.Errorf("xq: integer division by zero")
		}
		return Singleton(int64(lf / rf)), nil
	case "mod":
		if rf == 0 {
			return nil, fmt.Errorf("xq: modulo by zero")
		}
		return Singleton(math.Mod(lf, rf)), nil
	}
	return nil, fmt.Errorf("xq: unknown arithmetic operator %q", e.op)
}

func (e *unaryExpr) eval(c *evalCtx) (Sequence, error) {
	v, err := e.x.eval(c)
	if err != nil {
		return nil, err
	}
	if !e.neg {
		return v, nil
	}
	if len(v) == 0 {
		return Empty, nil
	}
	a := Atomize(v)
	if len(a) != 1 {
		return nil, fmt.Errorf("xq: unary minus on non-singleton")
	}
	if i, ok := a[0].(int64); ok {
		return Singleton(-i), nil
	}
	f := NumberValue(a[0])
	if math.IsNaN(f) {
		return nil, fmt.Errorf("xq: unary minus on non-numeric value")
	}
	return Singleton(-f), nil
}

func (e *unionExpr) eval(c *evalCtx) (Sequence, error) {
	var all Sequence
	for _, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		for _, it := range v {
			if !IsNode(it) {
				return nil, fmt.Errorf("xq: union operand contains non-node %T", it)
			}
		}
		all = append(all, v...)
	}
	return sortNodesDocOrder(c, all), nil
}

func (e *concatExpr) eval(c *evalCtx) (Sequence, error) {
	l, err := e.l.eval(c)
	if err != nil {
		return nil, err
	}
	r, err := e.r.eval(c)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, it := range Atomize(l) {
		sb.WriteString(StringValue(it))
	}
	for _, it := range Atomize(r) {
		sb.WriteString(StringValue(it))
	}
	return Singleton(sb.String()), nil
}

func (e *varRef) eval(c *evalCtx) (Sequence, error) {
	if v, ok := c.vars.lookup(e.name); ok {
		return v, nil
	}
	return nil, fmt.Errorf("xq: undefined variable $%s", e.name)
}

func (e *literal) eval(*evalCtx) (Sequence, error) { return e.val[:], nil }

func (e *ctxItemExpr) eval(c *evalCtx) (Sequence, error) {
	if c.item == nil {
		return nil, fmt.Errorf("xq: context item is undefined")
	}
	return Singleton(c.item), nil
}

func (e *funcCall) eval(c *evalCtx) (Sequence, error) {
	if uf, ok := c.funcs[e.name]; ok {
		return e.evalUser(c, uf)
	}
	fn, ok := builtins[e.name]
	if !ok {
		return nil, fmt.Errorf("xq: unknown function %s()", e.name)
	}
	if len(e.args) < fn.minArgs || (fn.maxArgs >= 0 && len(e.args) > fn.maxArgs) {
		return nil, fmt.Errorf("xq: %s() takes %d..%d arguments, got %d", e.name, fn.minArgs, fn.maxArgs, len(e.args))
	}
	args := make([]Sequence, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn.impl(c, args)
}

// evalUser applies a user-declared function: arguments are evaluated in
// the caller's context, the body in a fresh context whose variables are
// the parameters chained onto the query's globals (no context item, per
// XQuery function semantics).
func (e *funcCall) evalUser(c *evalCtx, uf *userFunc) (Sequence, error) {
	if len(e.args) != len(uf.params) {
		return nil, fmt.Errorf("xq: %s() takes %d arguments, got %d", e.name, len(uf.params), len(e.args))
	}
	if c.depth+1 > maxCallDepth {
		return nil, fmt.Errorf("xq: %s() exceeded recursion depth %d", e.name, maxCallDepth)
	}
	frame := c.globals
	for i, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		frame = &env{name: uf.params[i], val: v, parent: frame}
	}
	cc := *c
	cc.item = nil
	cc.pos, cc.size = 0, 0
	cc.emit = nil
	cc.vars = frame
	cc.depth = c.depth + 1
	return uf.body.eval(&cc)
}

// --- Path evaluation ---

// descOrSelfNode is the descendant-or-self::node() step "//" stands for.
var descOrSelfNode = pathStep{axis: axisDescOrSelf, test: nodeTest{kind: testNode}}

func (e *pathExpr) eval(c *evalCtx) (Sequence, error) {
	steps := e.compiled()
	var cur Sequence
	if e.absolute || e.doubleSlash {
		root, err := c.docRoot()
		if err != nil {
			return nil, err
		}
		if (e.invariant || e.probe != nil) && c.setwise() {
			return c.evalPathSet(e, root)
		}
		if e.doubleSlash {
			cur = c.appendAxis(nil, root, &descOrSelfNode, nil)
		} else {
			cur = Singleton(root)
		}
	} else if steps[0].primary != nil {
		// A path headed by a primary expression ($v/..., f()/...) does not
		// need a context item: the primary supplies the start sequence.
		v, err := steps[0].primary.eval(c)
		if err != nil {
			return nil, err
		}
		cur, err = applyPredicates(c, v, steps[0].preds)
		if err != nil {
			return nil, err
		}
		if len(steps) > 1 {
			cur = sortNodesDocOrder(c, cur)
		}
		steps = steps[1:]
	} else {
		if c.item == nil {
			return nil, fmt.Errorf("xq: relative path requires a context item")
		}
		cur = Singleton(c.item)
	}
	return c.evalSteps(cur, steps)
}

// docRoot is where an absolute path starts: the root of the context node.
func (c *evalCtx) docRoot() (*xmldoc.Node, error) {
	n, ok := c.item.(*xmldoc.Node)
	if !ok {
		return nil, fmt.Errorf("xq: absolute path requires a node context item")
	}
	return c.rootOf(n), nil
}

// evalSteps applies the remaining path steps to cur.
func (c *evalCtx) evalSteps(cur Sequence, steps []pathStep) (Sequence, error) {
	for i := 0; i < len(steps); {
		st := &steps[i]
		if n, ok := c.fuseFrom(cur, st); ok {
			// A maximal run of child/attribute name steps with compiled
			// predicates, from one start node: every intermediate result
			// sits at one tree depth, so the depth-first walk delivers the
			// run's result duplicate-free and in document order.
			j := i + 1
			for j < len(steps) && steps[j].walkable() {
				j++
			}
			var out Sequence
			walkPlan(n, steps[i:j], &c.run.meter, func(x *xmldoc.Node) bool {
				out = append(out, x)
				return true
			})
			if err := c.run.err(); err != nil {
				return nil, err
			}
			cur, i = out, j
			continue
		}
		fromOne := len(cur) == 1
		var err error
		cur, err = c.applyStep(cur, st)
		if err != nil {
			return nil, err
		}
		// Between steps, node sequences are kept in document order; a
		// forward axis from one node yields it already.
		if (i < len(steps)-1 || st.primary == nil) && !(fromOne && st.forward()) {
			cur = sortNodesDocOrder(c, cur)
		}
		i++
	}
	return cur, nil
}

// fuseFrom reports whether st can start a fused run: cur is a single node
// (a node set could hold an ancestor and its descendant, and the walk of
// one would then interleave with the other's) and st is walkable.
func (c *evalCtx) fuseFrom(cur Sequence, st *pathStep) (*xmldoc.Node, bool) {
	if len(cur) != 1 || c.general || !st.walkable() {
		return nil, false
	}
	n, ok := cur[0].(*xmldoc.Node)
	return n, ok
}

// forward reports whether the step, applied to a single node, yields
// distinct nodes in document order.
func (st *pathStep) forward() bool {
	if st.primary != nil {
		return false
	}
	switch st.axis {
	case axisChild, axisAttribute, axisSelf, axisParent, axisDescendant, axisDescOrSelf, axisFollowingSibling:
		return true
	}
	return false
}

// applyStep applies one path step to each item of the input sequence.
func (c *evalCtx) applyStep(input Sequence, st *pathStep) (Sequence, error) {
	if st.primary != nil {
		// Filter step: evaluate primary for each context item, concatenate,
		// then filter by predicates over the whole sequence.
		var all Sequence
		for i, it := range input {
			ci := c.withItem(it, i+1, len(input))
			v, err := st.primary.eval(ci)
			if err != nil {
				return nil, err
			}
			all = append(all, v...)
		}
		return applyPredicates(c, all, st.preds)
	}
	// Axis step. Compiled predicates filter the axis candidates in place;
	// predicates outside the closure grammar need each node's axis
	// sequence for position() and last().
	compiled := !c.general && len(st.cpreds) == len(st.preds)
	var out Sequence
	for _, it := range input {
		n, ok := it.(*xmldoc.Node)
		if !ok {
			return nil, fmt.Errorf("xq: path step on atomic value %T", it)
		}
		if compiled {
			out = c.appendAxis(out, n, st, st.cpreds)
			if err := c.run.err(); err != nil {
				return nil, err
			}
			continue
		}
		filtered, err := applyPredicates(c, c.appendAxis(nil, n, st, nil), st.preds)
		if err != nil {
			return nil, err
		}
		out = append(out, filtered...)
	}
	return out, nil
}

// appendAxis appends to out the nodes reachable from n on st's axis that
// match its node test and hold under preds, in axis order.
func (c *evalCtx) appendAxis(out Sequence, n *xmldoc.Node, st *pathStep, preds []nodePred) Sequence {
	switch st.axis {
	case axisChild:
		for _, ch := range n.Children {
			out = c.take(out, ch, st, preds)
		}
	case axisAttribute:
		for _, a := range n.Attrs {
			out = c.take(out, a, st, preds)
		}
	case axisSelf:
		out = c.take(out, n, st, preds)
	case axisParent:
		if p := c.parentOf(n); p != nil {
			out = c.take(out, p, st, preds)
		}
	case axisDescOrSelf:
		out = c.takeSubtree(out, n, st, preds)
	case axisDescendant:
		for _, ch := range n.Children {
			out = c.takeSubtree(out, ch, st, preds)
		}
	case axisAncestor:
		for p := c.parentOf(n); p != nil; p = c.parentOf(p) {
			out = c.take(out, p, st, preds)
		}
	case axisAncestorOrSelf:
		for p := n; p != nil; p = c.parentOf(p) {
			out = c.take(out, p, st, preds)
		}
	case axisFollowingSibling, axisPrecedingSibling:
		parent := c.parentOf(n)
		if parent == nil {
			break
		}
		sibs := parent.Children
		idx := -1
		for i, s := range sibs {
			if s == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		if st.axis == axisFollowingSibling {
			for _, s := range sibs[idx+1:] {
				out = c.take(out, s, st, preds)
			}
		} else {
			// Preceding-sibling axis order is reverse document order.
			for i := idx - 1; i >= 0; i-- {
				out = c.take(out, sibs[i], st, preds)
			}
		}
	}
	return out
}

// take appends m if it matches st's node test and holds under preds.
func (c *evalCtx) take(out Sequence, m *xmldoc.Node, st *pathStep, preds []nodePred) Sequence {
	if matchTest(m, &st.test, st.axis) && holdAll(preds, m, &c.run.meter) {
		out = append(out, m)
	}
	return out
}

// takeSubtree is take over m and its descendants, in document order.
func (c *evalCtx) takeSubtree(out Sequence, m *xmldoc.Node, st *pathStep, preds []nodePred) Sequence {
	out = c.take(out, m, st, preds)
	for _, ch := range m.Children {
		out = c.takeSubtree(out, ch, st, preds)
	}
	return out
}

// matchTest is the one node test: whether n, met on axis ax, is what test
// selects. A name test selects the axis' principal node kind (attributes
// on the attribute axis, elements elsewhere) and matches QNames
// prefix-insensitively, looking only at the tail of a name long enough to
// carry a prefix.
func matchTest(n *xmldoc.Node, test *nodeTest, ax axis) bool {
	switch test.kind {
	case testNode:
		return true
	case testText:
		return n.Kind == xmldoc.TextNode
	case testComment:
		return n.Kind == xmldoc.CommentNode
	case testElement:
		return n.Kind == xmldoc.ElementNode
	case testDocument:
		return n.Kind == xmldoc.DocumentNode
	}
	want := xmldoc.ElementNode
	if ax == axisAttribute {
		want = xmldoc.AttributeNode
	}
	if n.Kind != want {
		return false
	}
	if test.kind == testAnyName {
		return true
	}
	name, p := n.Name, len(n.Name)-len(test.name)
	if p <= 0 {
		return name == test.name
	}
	return name[p-1] == ':' && name[p:] == test.name && strings.IndexByte(name[:p-1], ':') < 0
}

// applyPredicates filters seq by each predicate in turn. A numeric
// predicate value selects by position.
func applyPredicates(c *evalCtx, seq Sequence, preds []Expr) (Sequence, error) {
	for _, p := range preds {
		var kept Sequence
		size := len(seq)
		for i, it := range seq {
			if err := c.tick(); err != nil {
				return nil, err
			}
			ci := c.withItem(it, i+1, size)
			v, err := p.eval(ci)
			if err != nil {
				return nil, err
			}
			if len(v) == 1 {
				switch num := v[0].(type) {
				case int64:
					if int(num) == i+1 {
						kept = append(kept, it)
					}
					continue
				case float64:
					if num == float64(i+1) {
						kept = append(kept, it)
					}
					continue
				}
			}
			ok, err := EffectiveBool(v)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, it)
			}
		}
		seq = kept
	}
	return seq, nil
}

// --- Constructors ---

func (e *elemCtor) eval(c *evalCtx) (Sequence, error) {
	name := e.name
	if e.nameExpr != nil {
		v, err := e.nameExpr.eval(c)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return nil, fmt.Errorf("xq: computed element name must be a single item")
		}
		name = StringValue(v[0])
	}
	el := xmldoc.NewElement(name)
	for _, a := range e.attrs {
		var sb strings.Builder
		for _, p := range a.parts {
			if p.expr == nil {
				sb.WriteString(p.text)
				continue
			}
			v, err := p.expr.eval(c)
			if err != nil {
				return nil, err
			}
			for i, it := range Atomize(v) {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(StringValue(it))
			}
		}
		el.SetAttr(a.name, sb.String())
	}
	for _, ce := range e.content {
		v, err := ce.eval(c)
		if err != nil {
			return nil, err
		}
		if err := appendContent(el, v); err != nil {
			return nil, err
		}
	}
	el.Normalize()
	el.Renumber()
	return Singleton(el), nil
}

// appendContent adds evaluated content to an element under construction:
// nodes are deep-copied in, atomics become text (space-separated runs).
func appendContent(el *xmldoc.Node, v Sequence) error {
	prevAtomic := false
	for _, it := range v {
		switch n := it.(type) {
		case *xmldoc.Node:
			switch n.Kind {
			case xmldoc.AttributeNode:
				el.SetAttr(n.Name, n.Data)
			case xmldoc.DocumentNode:
				for _, ch := range n.Children {
					el.AppendChild(ch.Clone())
				}
			default:
				el.AppendChild(n.Clone())
			}
			prevAtomic = false
		default:
			s := StringValue(it)
			if prevAtomic {
				s = " " + s
			}
			el.AppendChild(xmldoc.NewText(s))
			prevAtomic = true
		}
	}
	return nil
}

func (e *textCtor) eval(c *evalCtx) (Sequence, error) {
	if e.expr == nil {
		return Singleton(xmldoc.NewText(e.text)), nil
	}
	v, err := e.expr.eval(c)
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
	return Singleton(xmldoc.NewText(sb.String())), nil
}
