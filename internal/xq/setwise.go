// Set-at-a-time evaluation: what keeps a FLWOR or quantifier from paying
// for its inner sources once per binding of its outer ones, and an
// evaluation over an immutable document from paying again for what an
// earlier one learned about it.
//
// An absolute path whose every step is walkable() depends on nothing but
// its root, so it is invariant: its node list is walked once and kept in a
// Memo. A path P[c1]...[ck][rel = E], P and the ci as above, rel inside
// the closure grammar and E `$v` or `$v/rel`, indexes P's node list by
// the string values of rel's leaves on its first evaluation and answers
// every later one with a map lookup per value of E; with E a literal the
// whole path is walkable, one invariant list.
// A FLWOR whose last clause is `for $s in P` and whose where starts with
// `$s/rel = E` iterates the same probe's hits instead of all of P; the
// whole where still runs on them. Everything else, and the reference
// evaluation always, takes eval.go's general code.
//
// A Memo keys its entries by the canonical text of the walk (and rel), so
// different queries over one document share them. An evaluation's own
// memo dies with it and is not entered at the top level, where nothing is
// evaluated twice; one passed in Options.Memo belongs to an immutable
// document (the registry keeps one per pinned tuple set) and serves every
// evaluation over it, the top level included. Nothing an evaluation learns
// sits on the Query or the AST, which serve many snapshots at once.
//
// Carry derives a successor document's lists and indexes from a shared
// memo's, walking only the members it does not share (segments).
package xq

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"wsda/internal/xmldoc"
)

// memoCap bounds a shared Memo's keys; past it an evaluation keeps its
// builds in its own memo. Canonical Q6–Q10 install 9 keys, about 73 KB
// over 1 000 tuples (TestMemoFootprint); on view-xquery they raised
// registryd's peak RSS from about 44.5 to 45.7 MB. 36 keys are four such
// mixes per tuple set, about 6 MB per 1 000 tuples over 16 filter slots.
const memoCap = 36

// Memo holds what evaluations learn about one document: the node lists of
// invariant absolute paths, the equality indexes built over them, and the
// ranks of its shared members (shared.go). The zero value is ready to use
// and safe for concurrent evaluations. A Memo binds to the root of the
// first document it serves and refuses any other; the document must not
// change while the Memo lives.
type Memo struct {
	mu   sync.Mutex
	root *xmldoc.Node // the root it serves; nil for an evaluation's own memo
	sets map[setKey]*nodeSet
}

// MemoCounts is what evaluations did with a shared Memo (Options.Memo).
type MemoCounts struct {
	Hits      int // node lists, indexes and rank maps read from it
	Builds    int // node lists, indexes and rank maps installed in it
	Overflows int // builds kept private because it held memoCap keys
}

// errMemoDoc is Eval's answer to a Memo passed with another document.
var errMemoDoc = errors.New("xq: Options.Memo serves another document")

// bind ties m to root on first use and reports whether it serves root.
func (m *Memo) bind(root *xmldoc.Node) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.root == nil {
		m.root = root
	}
	return m.root == root
}

// get returns the set held under key, or nil.
func (m *Memo) get(key setKey) *nodeSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := m.sets[key]
	if set != nil {
		set.read = true
	}
	return set
}

// put installs a complete build under key and returns what m then holds
// there: the first complete build wins. A full shared memo returns nil.
func (m *Memo) put(key setKey, set *nodeSet) *nodeSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.sets[key]; old != nil {
		old.read = true
		return old
	}
	if m.root != nil && len(m.sets) >= memoCap {
		return nil
	}
	if m.sets == nil {
		m.sets = make(map[setKey]*nodeSet)
	}
	m.sets[key], set.read = set, true
	return set
}

// Carry fills m, the unused memo of doc, with what prev learned about the
// document doc succeeds: each node list and index of prev that splits by
// member and was read or built since prev was made or carried, as a build
// over doc would make it. from, called only if there is one, returns for
// each member i of doc the position among prev's members of the very same
// node, or -1 for one to walk; carried members must keep their order. A
// carried member's nodes are copied, a new one is walked, index positions
// move with their members, and each set costs what a build over doc is
// charged. m keeps nothing of prev. Carry returns how many sets it carried.
func (m *Memo) Carry(doc *xmldoc.Node, prev *Memo, from func() []int32) int {
	prev.mu.Lock()
	sets := maps.Clone(prev.sets)
	maps.DeleteFunc(sets, func(_ setKey, set *nodeSet) bool { return !set.read || set.segs == nil })
	prev.mu.Unlock()
	if len(sets) == 0 || !m.bind(doc) {
		return 0
	}
	at := from()
	lists := map[*segments]*nodeSet{} // carried lists by the segments they were carried from
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sets = make(map[setKey]*nodeSet, len(sets))
	for k, old := range sets {
		kids, ok := members(doc, old.segs.steps)
		if !ok || len(kids) != len(at) {
			continue
		}
		list, done := lists[old.segs]
		if !done {
			list = carried(old, kids, at)
			lists[old.segs] = list
		}
		if list == nil {
			continue
		}
		set := list
		if old.index != nil {
			set = carriedIndex(old, list, at)
		}
		m.sets[setKey{k.path, doc}] = set
	}
	return len(m.sets)
}

// carried returns old's node list over the members kids, from as Carry's:
// new members walked first, then runs of carried ones copied at a time; nil
// when a new member's walk raised.
func carried(old *nodeSet, kids []*xmldoc.Node, from []int32) *nodeSet {
	segs := &segments{steps: old.segs.steps, of: make([]segment, len(kids)+1)}
	var walked Sequence
	var m meter
	size := 0
	for i, j := range from {
		if j >= 0 {
			size += int(old.segs.of[j+1].start - old.segs.of[j].start)
			continue
		}
		at := m.steps
		walkMember(kids[i], segs.steps[1:], &m, func(n *xmldoc.Node) bool { walked = append(walked, n); return true })
		segs.of[i] = segment{int32(len(walked)), int32(m.steps - at)} // where its nodes end in walked, for now
	}
	if m.err() != nil {
		return nil // a new member raised (number() over two nodes): a build over doc fails, so none is carried
	}
	set := &nodeSet{nodes: make(Sequence, 0, size+len(walked)), segs: segs}
	w, rlo, rhi := 0, 0, 0 // old.nodes[rlo:rhi]: carried nodes not yet copied
	for i, j := range from {
		seg := &segs.of[i]
		start := int32(len(set.nodes) + rhi - rlo)
		if j >= 0 {
			if lo := int(old.segs.of[j].start); lo != rhi {
				set.nodes, rlo = append(set.nodes, old.nodes[rlo:rhi]...), lo
			}
			rhi, seg.cost = int(old.segs.of[j+1].start), old.segs.of[j].cost
		} else {
			end := int(seg.start)
			set.nodes = append(append(set.nodes, old.nodes[rlo:rhi]...), walked[w:end]...)
			w, rlo, rhi = end, 0, 0
		}
		seg.start = start
		set.cost += int(seg.cost)
	}
	set.nodes = append(set.nodes, old.nodes[rlo:rhi]...)
	segs.of[len(kids)].start = int32(len(set.nodes))
	return set
}

// carriedIndex returns old, an index, over list, its list carried with
// from as Carry's: positions of carried members moved, those of the
// others gone, and the new members indexed.
func carriedIndex(old, list *nodeSet, from []int32) *nodeSet {
	moved := make([]int32, len(old.nodes)) // old position -> new position + 1; 0: gone
	index := valueIndex{}                  // the new members' positions first
	var m meter
	for i, j := range from {
		lo, hi := int(list.segs.of[i].start), int(list.segs.of[i+1].start)
		for p := lo; p < hi; p++ {
			if j < 0 {
				index.add(list.nodes[p].(*xmldoc.Node), int32(p), old.rel, &m)
			} else {
				moved[int(old.segs.of[j].start)+p-lo] = int32(p) + 1
			}
		}
	}
	for v, at := range old.index {
		add := index[v]
		to := make([]int32, 0, len(at)+len(add))
		for _, p := range at {
			if q := moved[p] - 1; q >= 0 {
				for ; len(add) > 0 && add[0] < q; add = add[1:] {
					to = append(to, add[0])
				}
				to = append(to, q)
			}
		}
		if to = append(to, add...); len(to) > 0 {
			index[v] = to
		}
	}
	return &nodeSet{nodes: list.nodes, index: index, rel: old.rel, segs: list.segs}
}

// setKey names a memoised set: the canonical text of its walk (memoText),
// and for an index the rel it is keyed by, from a root. An absolute path
// starts at the root of its context node, which inside a predicate over
// constructed elements is not the context document's.
type setKey struct {
	path string
	root *xmldoc.Node
}

// nodeSet is one memoised path result in document order, or an index over
// one. It is immutable once installed, but for its read mark.
type nodeSet struct {
	nodes Sequence
	cost  int                  // steps the walk was charged: the most a hit is charged
	index valueIndex           // nil for a plain list
	rel   []pathStep           // what index is keyed by
	ranks map[*xmldoc.Node]int // instead, a document's shared members' positions (shared.go)
	segs  *segments            // nodes by member, for Carry; nil when they do not split so
	read  bool                 // read or built since installed, under the memo's lock: Carry takes only these
}

// segments splits the node list of a walk /A/B/... from a document, A
// unpredicated, by the members it is the concatenation of: the children of
// the document element, each walked on its own (compiled predicates read
// only the subtree of the node they test). An index shares its list's.
type segments struct {
	steps []pathStep // the walk
	of    []segment  // one per member, in document order, and one past the last
}

// segment is where one member's nodes start in the list, and the steps its
// walk was charged: member i's nodes are nodes[of[i].start:of[i+1].start].
type segment struct{ start, cost int32 }

// members returns the document element's children when steps, walked from
// root, split by them: root is a document with that element its one child,
// steps[0] selects it without a predicate, and steps[1] is a child step.
func members(root *xmldoc.Node, steps []pathStep) ([]*xmldoc.Node, bool) {
	if root.Kind != xmldoc.DocumentNode || len(root.Children) != 1 || len(steps) < 2 ||
		len(steps[0].preds) > 0 || steps[1].axis != axisChild {
		return nil, false
	}
	top := root.Children[0]
	return top.Children, matchTest(top, &steps[0].test, steps[0].axis)
}

// capped hands the shared node list out so that no caller's append can
// write into it.
func (s *nodeSet) capped() Sequence { return s.nodes[:len(s.nodes):len(s.nodes)] }

// lookup returns the set held under key by the memo serving its root, the
// shared one first.
func (r *evalRun) lookup(key setKey) *nodeSet {
	if r.serves(key.root) {
		if set := r.shared.get(key); set != nil {
			r.counts.Hits++
			return set
		}
	}
	return r.own.get(key)
}

// install publishes a complete build in the memo serving its root, or in
// the evaluation's own when that one is full, and returns the set to use.
func (r *evalRun) install(key setKey, set *nodeSet) *nodeSet {
	if r.serves(key.root) {
		if got := r.shared.put(key, set); got != nil {
			r.counts.Builds++
			return got
		}
		r.counts.Overflows++
	}
	return r.own.put(key, set)
}

// serves reports whether the shared memo holds the sets rooted at root.
func (r *evalRun) serves(root *xmldoc.Node) bool { return r.shared != nil && r.shared.root == root }

// eqProbe is an equality the index answers: `rel = key` over a path's node
// set, found at compile time as a path's last predicate or as the first
// where conjunct over a FLWOR's last for clause (a join: pred is nil).
type eqProbe struct {
	walk     []pathStep // the steps to the indexed set: the path's, without the probed predicate
	walkKey  string     // memoText of walk
	indexKey string     // walkKey and rel's memoText
	rel      []pathStep // from a node of the set to its key leaves
	key      Expr       // `$v` or `$v/rel`
	pred     []Expr     // the probed predicate alone, for values the index cannot answer
}

// newProbe fills in a probe's memo keys.
func newProbe(walk, rel []pathStep, key Expr, pred []Expr) *eqProbe {
	walkKey := string(memoText([]byte{'/'}, walk))
	indexKey := string(memoText(append([]byte(walkKey), 0), rel))
	return &eqProbe{walk: walk, walkKey: walkKey, indexKey: indexKey, rel: rel, key: key, pred: pred}
}

// setwise reports whether a path evaluated here may be evaluated again
// with the same value: under a bound variable, or anywhere when a shared
// memo outlives the evaluation; never for the reference.
func (c *evalCtx) setwise() bool {
	return !c.general && (c.vars != c.globals || c.run.shared != nil)
}

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
		e.key = string(memoText([]byte{'/'}, e.steps))
	}
	k := len(last.preds) - 1
	if k < 0 {
		return
	}
	probed := last.preds[k:]
	last.preds = last.preds[:k:k]
	if last.cpreds != nil {
		last.cpreds = last.cpreds[:k:k]
	} else if !slices.ContainsFunc(last.preds, raises) { // compiled() may have declined to
		last.cpreds = compilePreds(last.preds, "")
	}
	if rel, key, ok := eqSides(probed[0], ""); ok && last.walkable() {
		e.probe = newProbe(append(e.steps[:n-1:n-1], last), rel, key, probed)
	}
}

// memoText appends the canonical text of walkable steps to b: each step's
// axis, name test and predicates, every predicate the closure grammar's
// tree with comparisons written path first and literals in one spelling.
// Whitespace, quote style and operand order do not show, and equal texts
// select equal node sets.
func memoText(b []byte, steps []pathStep) []byte {
	for i := range steps {
		st := &steps[i]
		if i > 0 {
			b = append(b, '/')
		}
		if st.axis == axisAttribute {
			b = append(b, '@')
		}
		b = append(b, st.test.name...)
		for _, p := range st.preds {
			b = append(predText(append(b, '['), p), ']')
		}
	}
	return b
}

// predText appends the canonical text of one closure-grammar predicate.
func predText(b []byte, e Expr) []byte {
	args, op := []Expr(nil), " and "
	switch x := e.(type) {
	case *andExpr:
		args = x.args
	case *orExpr:
		args, op = x.args, " or "
	case *compExpr:
		y, op, lit, _ := cmpOperands(x)
		if f, isCall := y.(*funcCall); isCall {
			b = append(memoText(append(b, "number("...), f.args[0].(*pathExpr).steps), ')')
		} else {
			b = memoText(b, y.(*pathExpr).steps)
		}
		return fmt.Appendf(append(b, op...), "%#v", lit.val[0])
	case *pathExpr:
		return memoText(b, x.steps)
	}
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, op...)
		}
		b = predText(b, a)
	}
	return append(b, ')')
}

// whereJoin returns the probe that restricts the last for clause's
// iteration, if the FLWOR has the shape: no `at $i` (positions would be
// the hits', not the source's), an invariant source, and the equality as
// the where's first conjunct, so that no conjunct the reference evaluates
// on a pair the probe skips can raise.
func (e *flworExpr) whereJoin() *eqProbe {
	cl := &e.clauses[len(e.clauses)-1]
	src, ok := cl.expr.(*pathExpr)
	if !ok || cl.isLet || cl.posVar != "" || e.where == nil {
		return nil
	}
	src.compiled()
	if rel, key, ok := eqSides(conjuncts(e.where)[0], cl.varName); ok && src.invariant {
		return newProbe(src.steps, rel, key, nil)
	}
	return nil
}

// analyzed compiles the FLWOR's where-join and its binding plan (plan.go)
// on first use, once per compiled Query.
func (e *flworExpr) analyzed() *flworExpr {
	e.once.Do(func() { e.join, e.plan = e.whereJoin(), e.compilePlan() })
	return e
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
		rel, _ = operand(s[0], loopVar)
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
			if !steps[i+1].walkable() || slices.ContainsFunc(steps[i+1].preds, raises) {
				return "", nil, false
			}
		}
		return head.name, steps[1:], true
	}
	return "", nil, false
}

// forSource evaluates clause i's sequence, the last clause's through its
// where-join when it has one.
func (e *flworExpr) forSource(c *evalCtx, i int) (Sequence, error) {
	if i == len(e.clauses)-1 && c.setwise() {
		if j := e.analyzed().join; j != nil {
			root, err := c.docRoot()
			if err != nil {
				return nil, err
			}
			return c.evalSet(j, root)
		}
	}
	return e.clauses[i].expr.eval(c)
}

// evalPathSet evaluates an invariant or probed absolute path from root. A
// memoised list is charged one step per node it returns, never more than
// its walk was.
func (c *evalCtx) evalPathSet(e *pathExpr, root *xmldoc.Node) (Sequence, error) {
	if e.probe != nil {
		return c.evalSet(e.probe, root)
	}
	set, hit, err := c.nodeSet(e.key, e.steps, root)
	if err == nil && hit && !c.run.charge(min(len(set.nodes), set.cost)) {
		err = c.run.err()
	}
	if err != nil {
		return nil, err
	}
	return set.capped(), nil
}

// evalSet answers probe p from its path's memoised node set: the hits of its
// index, or for a value the index cannot answer what the general code
// gives — the probed predicate interpreted (neither it nor those before
// it are positional, so filtering the concatenated candidates is filtering
// each parent's), the join's source whole.
func (c *evalCtx) evalSet(p *eqProbe, root *xmldoc.Node) (Sequence, error) {
	ikey := setKey{p.indexKey, root}
	set := c.run.lookup(ikey)
	if set == nil {
		list, _, err := c.nodeSet(p.walkKey, p.walk, root)
		if err != nil {
			return nil, err
		}
		set = list
	}
	hits, ok, err := c.probe(set, p, ikey)
	if err != nil || ok {
		return hits, err
	}
	return applyPredicates(c, set.capped(), p.pred)
}

// nodeSet returns the nodes steps reach from root, walking them only when
// no memo holds them; hit reports that one did. A walk that runs out of
// steps is discarded, never installed.
func (c *evalCtx) nodeSet(path string, steps []pathStep, root *xmldoc.Node) (set *nodeSet, hit bool, err error) {
	key := setKey{path, root}
	if set := c.run.lookup(key); set != nil {
		return set, true, nil
	}
	buf := walkBufs.Get().(*Sequence)
	defer func() { clear(*buf); *buf = (*buf)[:0]; walkBufs.Put(buf) }()
	before := c.run.steps
	visit := func(n *xmldoc.Node) bool {
		*buf = append(*buf, n)
		return c.run.err() == nil
	}
	var segs *segments
	if kids, ok := members(root, steps); ok && c.run.serves(root) {
		segs = &segments{steps: steps, of: make([]segment, len(kids)+1)}
		for i, t := range kids { // the same walk, member by member
			start, at := len(*buf), c.run.steps
			walkMember(t, steps[1:], &c.run.meter, visit)
			segs.of[i] = segment{int32(start), int32(c.run.steps - at)}
		}
		segs.of[len(kids)].start = int32(len(*buf))
	} else {
		walkPlan(root, steps, &c.run.meter, visit)
	}
	if err := c.run.err(); err != nil {
		return nil, false, err
	}
	set = &nodeSet{nodes: slices.Clone(*buf), cost: c.run.steps - before, segs: segs}
	return c.run.install(key, set), false, nil
}

// walkBufs are the buffers node lists are walked into: a list grown by
// append allocates several times its final size, and a memo keeps the
// exact copy for as long as its document lives.
var walkBufs = sync.Pool{New: func() any { return new(Sequence) }}

// valueIndex is an equality index: the string value of a rel leaf -> the
// positions, ascending, of the nodes of a list reaching it.
type valueIndex map[string][]int32

// add indexes the node at pos by the leaves rel reaches from it.
func (ix valueIndex) add(n *xmldoc.Node, pos int32, rel []pathStep, m *meter) {
	walkPlan(n, rel, m, func(leaf *xmldoc.Node) bool {
		v := leaf.StringValue()
		if at := ix[v]; len(at) == 0 || at[len(at)-1] != pos {
			ix[v] = append(at, pos)
		}
		return true
	})
}

// probe returns the nodes of set that have a rel leaf equal to one of the
// key's values, each once and in document order: general `=` is
// existential on both sides. ok is false when a value is not a string or
// untyped atomic — compareAtomic coerces numbers and booleans differently.
// set is the probed list or an index over it; an index built here is
// installed under ikey once charged.
//
// Steps: a probe is charged one per node it returns, the probe that builds
// the index one per node it indexes instead (plus what rel's own
// predicates test); a join's hits become FLWOR tuples and are charged as
// those. Either way no more than the reference, which tests every node of
// the set every time.
func (c *evalCtx) probe(set *nodeSet, p *eqProbe, ikey setKey) (hits Sequence, ok bool, err error) {
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
	fresh := set.index == nil
	if fresh {
		index := valueIndex{}
		for i, it := range set.nodes {
			if index.add(it.(*xmldoc.Node), int32(i), p.rel, &c.run.meter); c.run.err() != nil {
				return nil, false, c.run.err()
			}
		}
		set = &nodeSet{nodes: set.nodes, index: index, rel: p.rel, segs: set.segs}
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
	if fresh {
		charge = len(set.nodes)
	}
	if p.pred == nil {
		charge -= len(hits) // a join: the FLWOR charges its tuples itself
	}
	if !c.run.charge(charge) {
		return nil, false, c.run.err()
	}
	if fresh {
		c.run.install(ikey, set)
	}
	return hits, true, nil
}
