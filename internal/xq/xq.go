package xq

import (
	"errors"
	"fmt"
	"slices"

	"wsda/internal/xmldoc"
)

// Query is a compiled, reusable, goroutine-safe XQuery expression,
// together with its prolog's variable and function declarations.
type Query struct {
	src   string
	expr  Expr
	decls []varDecl
	funcs map[string]*userFunc

	head    TupleHead // the query's tuple head, if hasHead
	hasHead bool

	// general selects the reference evaluation (see evalCtx.general); set
	// through export_test.go only.
	general bool
}

// Compile parses src into a Query. A syntax error, nesting deeper than
// MaxDepth among them, is returned with the line and column it was found at.
func Compile(src string) (*Query, error) {
	p := &parser{lx: lexer{src: src}}
	e, decls, funcs, err := p.parse()
	if err != nil {
		return nil, err
	}
	q := &Query{src: src, expr: e, decls: decls, funcs: funcs}
	q.head, q.hasHead = tupleHeadOf(q)
	return q, nil
}

// MustCompile compiles src and panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Source returns the query text.
func (q *Query) Source() string { return q.src }

// Options configures one evaluation of a Query.
type Options struct {
	// Context is the initial context item (usually a document node). May be
	// nil for queries that do not navigate from the context. The children
	// of a context document's root element may be parentless subtrees
	// shared with other documents, all of them or none (see shared.go).
	Context *xmldoc.Node
	// Vars provides external variable bindings ($name -> sequence).
	Vars map[string]Sequence
	// MaxSteps bounds evaluation work; 0 means unlimited. Exceeding it
	// returns an error (used by the registry to throttle hostile queries).
	MaxSteps int
	// Emit, when non-nil, receives each result item as soon as it is
	// produced: a walk over Tuples and a top-level unordered FLWOR hand
	// each item on as they find it, a sorted or non-FLWOR result once all
	// of it exists (see Held). Returning false stops evaluation early
	// without error (pipelined execution, thesis Ch. 6.5). With Emit set
	// the returned sequence is nil.
	Emit func(Item) bool
	// Held, when set with Emit, is called once just before Eval emits
	// items it already holds together: a sorted FLWOR's results after the
	// sort, or the result of a query that is not a FLWOR. Every item Emit
	// receives after the call already existed when it was made, and Eval
	// returns after the last, so the consumer may write them back to back
	// and flush once when Eval returns. Items a walk or an unordered FLWOR
	// emits as it finds them never follow it.
	Held func()
	// Tuples, when set, stands in for the children of the context
	// document's <tupleset> root: it calls visit on each member in
	// document order and stops once visit returns false. Only a query
	// with a TupleHead can be evaluated over it, and Context is then not
	// read. The members may be parentless shared subtrees.
	Tuples func(visit func(*xmldoc.Node) bool)
	// Memo, when set, is what evaluations over Context's document share:
	// the node lists, equality indexes and member ranks one evaluation
	// builds, the next reads (setwise.go). It binds to the root of the
	// first Context it serves, and Eval refuses it with any other. The
	// document must be immutable for as long as the Memo lives. A sourced
	// evaluation (Tuples) never reads it.
	Memo *Memo
	// MemoCounts, when set with Memo, accumulates what this evaluation
	// read from Memo, installed in it, and kept private past its cap.
	MemoCounts *MemoCounts
}

// Eval evaluates the query and returns the result sequence. With
// opts.Emit set, results are streamed to the callback instead and the
// returned sequence is nil.
func (q *Query) Eval(opts *Options) (Sequence, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.Tuples != nil {
		return q.evalTuples(opts)
	}
	run := &evalRun{meter: meter{limit: opts.MaxSteps}}
	ctx := &evalCtx{run: run, funcs: q.funcs, general: q.general}
	if opts.Context != nil {
		ctx.item = opts.Context
		ctx.shared = sharedKidsOf(opts.Context, run)
		ctx.pos, ctx.size = 1, 1
	}
	if opts.Memo != nil && !q.general {
		if opts.Context == nil || !opts.Memo.bind(ctx.rootOf(opts.Context)) {
			return nil, errMemoDoc
		}
		run.shared, run.counts = opts.Memo, opts.MemoCounts
		if run.counts == nil {
			run.counts = &MemoCounts{}
		}
	}
	for name, val := range opts.Vars {
		ctx.vars = &env{name: name, val: val, parent: ctx.vars}
	}
	// Prolog variable declarations evaluate in order; external ones must
	// have been supplied through opts.Vars.
	for _, d := range q.decls {
		if d.external {
			if _, ok := ctx.vars.lookup(d.name); !ok {
				return nil, fmt.Errorf("xq: external variable $%s not bound", d.name)
			}
			continue
		}
		v, err := d.init.eval(ctx)
		if err != nil {
			return nil, fmt.Errorf("xq: declare variable $%s: %w", d.name, err)
		}
		ctx.vars = &env{name: d.name, val: v, parent: ctx.vars}
	}
	ctx.globals = ctx.vars
	if opts.Emit == nil {
		res, err := q.expr.eval(ctx)
		if run.shared != nil {
			// The result may be a shared memo's list, which the caller
			// must not be able to write into.
			res = slices.Clone(res)
		}
		return res, err
	}
	// Streaming mode: a top-level FLWOR pipes items out as they are
	// produced; any other expression emits its final sequence, held. Only
	// the top level gets the callback: a FLWOR inside a sequence or a
	// conditional must not emit ahead of the items evaluated around it.
	_, isFLWOR := q.expr.(*flworExpr)
	if isFLWOR {
		ctx.emit, run.held = opts.Emit, opts.Held
	}
	res, err := q.expr.eval(ctx)
	if errors.Is(err, errAborted) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if !isFLWOR {
		if opts.Held != nil {
			opts.Held()
		}
		for _, it := range res {
			if !opts.Emit(it) {
				break
			}
		}
	}
	return nil, nil
}

// EvalDoc is a convenience wrapper: evaluate against a context document.
func (q *Query) EvalDoc(doc *xmldoc.Node) (Sequence, error) {
	return q.Eval(&Options{Context: doc})
}

// EvalString compiles and evaluates src against doc in one shot.
func EvalString(src string, doc *xmldoc.Node) (Sequence, error) {
	q, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return q.EvalDoc(doc)
}

// Serialize renders a result sequence as text: nodes as XML, atomics as
// their string values, items separated by newlines.
func Serialize(seq Sequence) string {
	out := ""
	for i, it := range seq {
		if i > 0 {
			out += "\n"
		}
		if n, ok := it.(*xmldoc.Node); ok {
			out += n.String()
		} else {
			out += StringValue(it)
		}
	}
	return out
}

// ErrNotPipelineable reports that a query's shape cannot stream results
// early (e.g. it aggregates or sorts).
var ErrNotPipelineable = fmt.Errorf("xq: query is not pipelineable")

// Pipelineable reports whether the compiled query can deliver results
// incrementally: a top-level FLWOR without order-by (thesis Ch. 6.5
// classifies such queries as having the "potential to immediately start
// piping in early results"). Aggregating functions at the top level and
// sorted FLWORs must see all input first.
func (q *Query) Pipelineable() bool {
	fl, ok := q.expr.(*flworExpr)
	if !ok {
		return false
	}
	return len(fl.orderBy) == 0
}
