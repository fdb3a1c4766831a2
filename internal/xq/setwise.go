// Set-at-a-time evaluation: what keeps a FLWOR or quantifier from paying
// for its inner sources once per binding of its outer ones.
//
// One mechanism, three uses. An absolute path whose every step is
// walkable() holds no variable, no function call and no focus dependence
// beyond its root, so under a bound variable it is loop-invariant: it is
// walked once per Eval and the node set kept (nodeSet). A path
// P[c1]...[ck][rel = E], P and the ci as above, rel inside the closure
// grammar and E `$v` or `$v/rel`, indexes P's node set by the string
// values of rel's leaves on its first evaluation and answers every later
// one with a map lookup per value of E. A FLWOR whose last clause is
// `for $s in P` and whose where starts with `$s/rel = E` iterates the same
// probe's hits instead of all of P; the whole where still runs on them.
// Everything else, and the reference evaluation always, takes eval.go's
// general code. The memo lives and dies with one Eval call: a compiled
// Query is evaluated concurrently over different snapshots, so nothing an
// evaluation learns about a document may outlive it or sit on the AST.
package xq

import (
	"slices"

	"wsda/internal/xmldoc"
)

// setKey names a memoised node set (evalRun.sets): an absolute path starts
// at the root of its context node, which inside a predicate over
// constructed elements is not the context document's.
type setKey struct {
	path *pathExpr
	root *xmldoc.Node
}

// nodeSet is one memoised path result, in document order, and the index an
// equality probe has built over it.
type nodeSet struct {
	nodes Sequence
	index map[string][]int32 // string value of a rel leaf -> positions in nodes; nil until first probed
}

// capped hands the shared node list out so that no caller's append can
// write into it.
func (s *nodeSet) capped() Sequence { return s.nodes[:len(s.nodes):len(s.nodes)] }

// eqProbe is an equality the index answers: `rel = key` over src's node
// set, found at compile time as a path's last predicate or as the first
// where conjunct over a FLWOR's last for clause (a join: pred is nil).
type eqProbe struct {
	src  *pathExpr  // the path whose node set is indexed
	walk []pathStep // the steps to that set: src's, without the probed predicate
	rel  []pathStep // from a node of the set to its key leaves
	key  Expr       // `$v` or `$v/rel`: the same for every candidate
	pred []Expr     // the probed predicate alone, for values the index cannot answer
}

// setwise reports whether a path evaluated here may be evaluated again
// with the same value: not at the top level, where nothing is bound and a
// memo would be a map insert for nothing, and never for the reference.
func (c *evalCtx) setwise() bool { return !c.general && c.vars != c.globals }

// analyzeSet classifies the path once its steps are compiled.
func (e *pathExpr) analyzeSet() {
	n := len(e.steps)
	if !e.absolute || e.doubleSlash || n == 0 {
		return
	}
	for i := range e.steps[:n-1] {
		if !e.steps[i].walkable() {
			return
		}
	}
	last := e.steps[n-1] // a copy: the walk's last step loses the probed predicate
	if last.walkable() {
		e.invariant = true
		return
	}
	k := len(last.preds) - 1
	if k < 0 {
		return
	}
	probed := last.preds[k:]
	last.preds = last.preds[:k:k]
	last.cpreds = compilePreds(last.preds)
	if rel, key, ok := eqSides(probed[0], ""); ok && last.walkable() {
		e.probe = &eqProbe{src: e, walk: append(e.steps[:n-1:n-1], last), rel: rel, key: key, pred: probed}
	}
}

// whereJoin returns the probe that restricts the last for clause's
// iteration, if the FLWOR has the shape: no `at $i` (positions would be
// the hits', not the source's), an invariant source, and the equality as
// the where's first conjunct, so that no conjunct the reference evaluates
// on a pair the probe skips can raise.
func (e *flworExpr) whereJoin() *eqProbe {
	e.joinOnce.Do(func() {
		cl := &e.clauses[len(e.clauses)-1]
		src, ok := cl.expr.(*pathExpr)
		if !ok || cl.isLet || cl.posVar != "" || e.where == nil {
			return
		}
		first := e.where
		if and, ok := first.(*andExpr); ok {
			first = and.args[0]
		}
		src.compiled()
		if rel, key, ok := eqSides(first, cl.varName); ok && src.invariant {
			e.join = &eqProbe{src: src, walk: src.steps, rel: rel, key: key}
		}
	})
	return e.join
}

// eqSides recognises a general `rel = E` in either order. With loopVar ""
// rel is relative to the candidate (a predicate); otherwise it is written
// `$loopVar/rel`, and E must not be headed by that variable.
func eqSides(e Expr, loopVar string) (rel []pathStep, key Expr, ok bool) {
	cmp, isCmp := e.(*compExpr)
	if !isCmp || !cmp.general || cmp.op != "=" {
		return nil, nil, false
	}
	for _, s := range [2][2]Expr{{cmp.l, cmp.r}, {cmp.r, cmp.l}} {
		rel = nil
		if loopVar == "" {
			if pe, isPath := s[0].(*pathExpr); isPath {
				rel = compileRelPath(pe)
			}
		} else if name, steps, isVar := varPath(s[0]); isVar && name == loopVar {
			rel = steps
		}
		if name, _, isVar := varPath(s[1]); isVar && name != loopVar && len(rel) > 0 {
			return rel, s[1], true
		}
	}
	return nil, nil, false
}

// varPath splits `$v` or `$v/rel`, rel inside the closure grammar (and so
// free of variables itself), into the variable's name and rel's steps.
func varPath(e Expr) (name string, rel []pathStep, ok bool) {
	switch x := e.(type) {
	case *varRef:
		return x.name, nil, true
	case *pathExpr:
		if x.absolute || x.doubleSlash {
			break
		}
		steps := x.compiled()
		head, isVar := steps[0].primary.(*varRef)
		if !isVar || len(steps[0].preds) > 0 {
			break
		}
		for i := range steps[1:] {
			if !steps[i+1].walkable() {
				return "", nil, false
			}
		}
		return head.name, steps[1:], true
	}
	return "", nil, false
}

// forSource evaluates for clause i's binding sequence, the last clause's
// through its where-join when it has one.
func (e *flworExpr) forSource(c *evalCtx, i int) (Sequence, error) {
	if i == len(e.clauses)-1 && c.setwise() {
		if j := e.whereJoin(); j != nil {
			root, err := c.docRoot()
			if err != nil {
				return nil, err
			}
			return c.evalSet(j, root)
		}
	}
	return e.clauses[i].expr.eval(c)
}

// evalPathSet evaluates an invariant or probed absolute path from root.
func (c *evalCtx) evalPathSet(e *pathExpr, root *xmldoc.Node) (Sequence, error) {
	if e.probe != nil {
		return c.evalSet(e.probe, root)
	}
	set, err := c.nodeSet(e, e.steps, root)
	if err != nil {
		return nil, err
	}
	return set.capped(), nil
}

// evalSet answers probe p from src's memoised node set: the hits of its
// index, or for a value the index cannot answer what the general code
// gives — the probed predicate interpreted (neither it nor those before
// it are positional, so filtering the concatenated candidates is filtering
// each parent's), the join's source whole.
func (c *evalCtx) evalSet(p *eqProbe, root *xmldoc.Node) (Sequence, error) {
	set, err := c.nodeSet(p.src, p.walk, root)
	if err != nil {
		return nil, err
	}
	hits, ok, err := c.probe(set, p)
	if err != nil || ok {
		return hits, err
	}
	return applyPredicates(c, set.capped(), p.pred)
}

// nodeSet returns the nodes steps reach from root, walking them on the
// evaluation's first request for (path, root) only.
func (c *evalCtx) nodeSet(path *pathExpr, steps []pathStep, root *xmldoc.Node) (*nodeSet, error) {
	key := setKey{path, root}
	if set := c.run.sets[key]; set != nil {
		return set, nil
	}
	set := &nodeSet{}
	walkPlan(root, steps, &c.run.meter, func(n *xmldoc.Node) bool {
		set.nodes = append(set.nodes, n)
		return true
	})
	if err := c.run.err(); err != nil {
		return nil, err
	}
	if c.run.sets == nil {
		c.run.sets = make(map[setKey]*nodeSet)
	}
	c.run.sets[key] = set
	return set, nil
}

// probe returns the nodes of set that have a rel leaf equal to one of the
// key's values, each once and in document order: general `=` is
// existential on both sides. ok is false when a value is not a string or
// untyped atomic — compareAtomic coerces numbers and booleans differently.
//
// Steps: a probe is charged one per node it returns, the probe that builds
// the index one per node it indexes instead (plus what rel's own
// predicates test); a join's hits become FLWOR tuples and are charged as
// those. Either way no more than the reference, which tests every node of
// the set every time.
func (c *evalCtx) probe(set *nodeSet, p *eqProbe) (hits Sequence, ok bool, err error) {
	if len(set.nodes) == 0 {
		return nil, true, nil // no candidate: the reference never evaluates the key either
	}
	keys, err := p.key.eval(c)
	if err != nil {
		return nil, false, err
	}
	for _, k := range keys {
		switch k.(type) {
		case *xmldoc.Node, string:
		default:
			return nil, false, nil
		}
	}
	built := set.index == nil
	if built {
		set.index = make(map[string][]int32)
		var pos int32
		visit := func(leaf *xmldoc.Node) bool {
			v := leaf.StringValue()
			if at := set.index[v]; len(at) == 0 || at[len(at)-1] != pos {
				set.index[v] = append(at, pos)
			}
			return true
		}
		for i, it := range set.nodes {
			pos = int32(i)
			walkPlan(it.(*xmldoc.Node), p.rel, &c.run.meter, visit)
			if err := c.run.err(); err != nil {
				return nil, false, err
			}
		}
	}
	var at []int32
	if len(keys) == 1 {
		at = set.index[StringValue(keys[0])]
	} else {
		for _, k := range keys {
			at = append(at, set.index[StringValue(k)]...)
		}
		slices.Sort(at)
		at = slices.Compact(at)
	}
	hits = make(Sequence, len(at))
	for i, pos := range at {
		hits[i] = set.nodes[pos]
	}
	charge := len(hits)
	if built {
		charge = len(set.nodes)
	}
	if p.pred == nil {
		charge -= len(hits) // a join: the FLWOR charges its tuples itself
	}
	if !c.run.charge(charge) {
		return nil, false, c.run.err()
	}
	return hits, true, nil
}
