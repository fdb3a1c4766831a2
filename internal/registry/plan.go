package registry

// Planned query execution: the registry-side executor for the pushdown
// plans produced by xq.DiscoveryPlan. A plannable discovery query never
// touches a <tupleset> root — candidate tuples come straight from the
// soft-state store (point lookup by link, secondary index by type or
// context) or, for a scan, from the pinned unfiltered tuple set's
// link-ordered members, tuple-field equalities run as compiled
// closures over *tuple.Tuple, and only the survivors are rendered, through
// the same per-revision shared elements the tuple-set snapshots list (see
// view.go), so an unchanged tuple is rendered once however it is reached.
// Unplannable queries are interpreted over a pinned tuple set.
//
// Two observable (and intended) differences from the interpreter, results
// being equal: planned evaluations do not consume MaxQuerySteps (there is
// no interpreter to meter), and freshness pulls apply only to candidates
// that survive the index and field filters rather than to every
// filter-matching tuple.

import (
	"fmt"
	"strings"

	"wsda/internal/softstate"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// PlanInfo describes how one query evaluation was (or would be) executed;
// it backs the X-Wsda-Plan response header and wsdaquery -explain.
type PlanInfo struct {
	// Mode is "index" (softstate index or point lookup), "scan" (a walk
	// of the link-ordered live tuples) or "view" (interpreted over the
	// pinned tuple set).
	Mode string
	// Index names the access path for index mode: "link", "type", "ctx",
	// or "empty" for a statically contradictory query.
	Index string
	// Residual counts the predicate closures evaluated against rendered
	// tuple XML after index and field filtering.
	Residual int
}

// String renders the plan in the compact form used by the X-Wsda-Plan
// header, e.g. "index(link) residual=0" or "view".
func (p PlanInfo) String() string {
	switch p.Mode {
	case "index":
		return fmt.Sprintf("index(%s) residual=%d", p.Index, p.Residual)
	case "scan":
		return fmt.Sprintf("scan residual=%d", p.Residual)
	default:
		return "view"
	}
}

// ParsePlanInfo inverts String, so clients can reconstruct the plan from
// the X-Wsda-Plan header. Anything unrecognized (including an absent
// header) parses as the view fallback.
func ParsePlanInfo(s string) PlanInfo {
	var p PlanInfo
	switch {
	case strings.HasPrefix(s, "index("):
		rest := s[len("index("):]
		i := strings.IndexByte(rest, ')')
		if i < 0 {
			return PlanInfo{Mode: "view"}
		}
		p.Mode, p.Index = "index", rest[:i]
		fmt.Sscanf(rest[i:], ") residual=%d", &p.Residual)
	case strings.HasPrefix(s, "scan"):
		p.Mode = "scan"
		fmt.Sscanf(s, "scan residual=%d", &p.Residual)
	default:
		p.Mode = "view"
	}
	return p
}

// execPlan is a TuplePlan bound to the registry's execution machinery:
// tuple-field equalities split out as typed probes and closures, with
// everything else kept as node predicates over the rendered element.
type execPlan struct {
	never bool   // statically empty result
	link  string // exact-link point lookup, "" if none
	typ   string // type-index equality, "" if none
	ctx   string // context-index equality, "" if none
	// fields are the compiled tuple-field equality closures (link, type,
	// ctx, owner), applied before any XML is rendered.
	fields []func(t *tuple.Tuple) bool
	// residual are the predicates that need the rendered <tuple> element.
	residual []xq.NodePred
	// proj are the projection steps below the tuple element.
	proj []xq.PlanStep
}

// compileExecPlan lowers a TuplePlan: AttrEq entries over real tuple
// fields become index probes plus field closures; pushed equalities over
// any other attribute fall back to their compiled node predicates.
func compileExecPlan(p *xq.TuplePlan) *execPlan {
	ep := &execPlan{never: p.Never, proj: p.Proj}
	// Copy, never append to, the plan's residual slice: the plan is
	// shared by every registry that executes the query.
	ep.residual = append(ep.residual, p.Residual...)
	for name, val := range p.AttrEq {
		v := val
		switch name {
		case "link":
			ep.link = v
			ep.fields = append(ep.fields, func(t *tuple.Tuple) bool { return t.Link == v })
		case "type":
			ep.typ = v
			ep.fields = append(ep.fields, func(t *tuple.Tuple) bool { return t.Type == v })
		case "ctx":
			ep.ctx = v
			ep.fields = append(ep.fields, func(t *tuple.Tuple) bool { return t.Context == v })
		case "owner":
			ep.fields = append(ep.fields, func(t *tuple.Tuple) bool { return t.Owner == v })
		default:
			ep.residual = append(ep.residual, p.AttrPred[name])
		}
	}
	return ep
}

// maxCachedPlans bounds the per-registry executable-plan cache.
const maxCachedPlans = 1024

// execPlanFor returns the registry's cached executable form of the
// query's discovery plan, lowering it on first use.
func (r *Registry) execPlanFor(q *xq.Query, p *xq.TuplePlan) *execPlan {
	r.planMu.RLock()
	ep, ok := r.planCache[q]
	r.planMu.RUnlock()
	if ok {
		return ep
	}
	ep = compileExecPlan(p)
	r.planMu.Lock()
	if cached, ok := r.planCache[q]; ok {
		ep = cached
	} else {
		if len(r.planCache) >= maxCachedPlans {
			for k := range r.planCache {
				delete(r.planCache, k)
				break
			}
		}
		r.planCache[q] = ep
	}
	r.planMu.Unlock()
	return ep
}

// planCandidates picks the narrowest access path the plan and filter
// allow, returning the candidate revisions in link order (the tuple set's
// document order) and the chosen path name. A scan reads the pinned
// Filter{} tuple set, the one slot unfiltered interpreted queries share,
// narrowed to the filter's link prefix by binary search.
func (r *Registry) planCandidates(ep *execPlan, f Filter) (candidates []*stored, mode, index string) {
	// The plan's own equality outranks the filter's on the same index.
	typ, ctx := ep.typ, ep.ctx
	if typ == "" {
		typ = f.Type
	}
	if ctx == "" {
		ctx = f.Context
	}
	switch {
	case ep.never:
		return nil, "index", "empty"
	case ep.link != "":
		if v, ok := r.store.Get(ep.link); ok {
			candidates = []*stored{v}
		}
		return candidates, "index", "link"
	case typ != "":
		return valuesByLink(r.store.LiveBy(indexType, typ)), "index", "type"
	case ctx != "":
		return valuesByLink(r.store.LiveBy(indexContext, ctx)), "index", "ctx"
	}
	s, _, _ := r.pin(Filter{}, Freshness{})
	return s.linkRange(f.LinkPrefix), "scan", ""
}

// valuesByLink returns the entries' revisions in link order.
func valuesByLink(es []softstate.Entry[*stored]) []*stored {
	vals := make([]*stored, len(es))
	for i, e := range sortEntries(es) {
		vals[i] = e.Value
	}
	return vals
}

// runPlan executes a lowered plan: index probe, field closures, freshness,
// shared per-revision element, residual predicates, projection. Result
// nodes are (parts of) the shared immutable elements, never copies. With
// opts.Emit set items stream out as produced (the returned sequence is
// nil, like the interpreter's Emit mode) and a false return stops the walk
// early.
func (r *Registry) runPlan(ep *execPlan, opts QueryOptions) (seq xq.Sequence, info PlanInfo) {
	now := r.cfg.Now()
	candidates, mode, index := r.planCandidates(ep, opts.Filter)
	info = PlanInfo{Mode: mode, Index: index, Residual: len(ep.residual)}
	if opts.Explain != nil {
		// Filled before the first Emit so streaming callers can surface
		// the plan (e.g. as a response header) ahead of the first item.
		*opts.Explain = info
	}
	stopped := false
	deliver := func(n *xmldoc.Node) bool {
		if opts.Emit != nil {
			stopped = !opts.Emit(n)
			return !stopped
		}
		seq = append(seq, n)
		return true
	}
candidates:
	for _, v := range candidates {
		if stopped {
			break
		}
		t := v.Tuple
		if !opts.Filter.match(t) {
			continue
		}
		for _, fp := range ep.fields {
			if !fp(t) {
				continue candidates
			}
		}
		elem := v.element()
		if ft := r.ensureFresh(t, opts.Freshness, now); ft != t {
			// A freshness-substituted copy is rendered directly: the pull
			// that produced it has already stored a new revision, which
			// carries its own rendering from the next query on.
			elem = ft.ToXML()
			elem.Renumber()
		}
		for _, pred := range ep.residual {
			if !pred(elem, nil) {
				continue candidates
			}
		}
		xq.WalkPlan(elem, ep.proj, nil, deliver)
	}
	return seq, info
}
