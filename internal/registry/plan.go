package registry

// Tuple sources: where a discovery query's tuples come from. A query with
// an xq.TupleHead (/tupleset/tuple[...]/...) reads nothing of the tuple set
// but its <tuple> members, so it needs no pinned document: the registry
// hands xq its candidate members straight from the soft-state store (point
// lookup by link, secondary index by type or context) or, for a scan, from
// the pinned unfiltered tuple set's link-ordered members. Tuple-field
// equalities are checked on *tuple.Tuple before any XML is rendered,
// freshness is applied per candidate, and the member is the same
// per-revision shared element the tuple sets list (see view.go). xq then
// tests and walks every member as it would the document's, under the same
// step meter. Every other query is evaluated over its filter's pinned
// tuple set.
//
// A scan with nothing pushed down (no filter, no freshness, no field
// equality) that selects below the member or has a residual predicate
// (Q2–Q5) is the exception: it is evaluated over the pinned Filter{} set
// with the set's memo, like a query without a head, so its node list is
// walked once per set, carried across advances, and read warm in
// O(results). A cold read walks every member as the source would, under
// the same meter, before its first item leaves. The bare /tupleset/tuple,
// whose first page stops after one member, keeps the walk: a list of
// every member would cost each advance a copy of it.
//
// One observable (and intended) difference from a pinned evaluation,
// results being equal: freshness pulls apply only to the candidates the
// walk reaches, not to every filter-matching tuple.

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// PlanInfo describes how one query evaluation was (or would be) executed;
// it backs the X-Wsda-Plan response header and wsdaquery -explain.
type PlanInfo struct {
	// Mode is "index" (softstate index or point lookup), "scan" (a walk
	// of the link-ordered live tuples) or "view" (evaluated over the
	// pinned tuple set).
	Mode string
	// Index names the access path for index mode: "link", "type", "ctx",
	// or "empty" for a statically contradictory query.
	Index string
	// Residual counts the tuple-step conjuncts the source does not answer
	// from tuple fields: the ones only rendered tuple XML can decide.
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

// fieldEq is a tuple head's equalities on the tuple fields the store holds
// unrendered; "" constrains nothing, since a pushed literal is never empty.
type fieldEq struct{ link, typ, ctx, owner string }

// match reports whether t meets every equality.
func (e fieldEq) match(t *tuple.Tuple) bool {
	return (e.link == "" || t.Link == e.link) && (e.typ == "" || t.Type == e.typ) &&
		(e.ctx == "" || t.Context == e.ctx) && (e.owner == "" || t.Owner == e.owner)
}

// planCandidates picks the narrowest access path the head, filter and
// freshness allow, returning the candidate revisions in link order (the
// tuple set's document order), the field equalities every candidate must
// meet, and the plan. A scan reads the pinned Filter{} tuple set, the one
// slot unfiltered pinned evaluations share, narrowed to the filter's link
// prefix by binary search; no other path pins anything. A scan the memo
// answers (see above) returns that set instead of candidates.
func (r *Registry) planCandidates(h xq.TupleHead, f Filter, fresh Freshness) (candidates []*stored, memo *tupleSet, eq fieldEq, info PlanInfo) {
	info.Residual = h.Other
	for _, e := range h.Eqs {
		switch e.Attr {
		case "link":
			eq.link = e.Value
		case "type":
			eq.typ = e.Value
		case "ctx":
			eq.ctx = e.Value
		case "owner":
			eq.owner = e.Value
		default:
			info.Residual++
		}
	}
	// The head's own equality outranks the filter's on the same index.
	typ, ctx := cmp.Or(eq.typ, f.Type), cmp.Or(eq.ctx, f.Context)
	info.Mode = "index"
	switch index, key := indexType, typ; {
	case h.Never:
		info.Index = "empty"
	case eq.link != "":
		info.Index = "link"
		if v, ok := r.store.Get(eq.link); ok {
			candidates = []*stored{v}
		}
	case typ != "" || ctx != "":
		if typ == "" {
			index, key = indexContext, ctx
		}
		info.Index = index
		es := sortEntries(r.store.LiveBy(index, key))
		candidates = make([]*stored, len(es))
		for i, e := range es {
			candidates[i] = e.Value
		}
	default:
		info.Mode = "scan"
		s, _, _ := r.pin(Filter{}, Freshness{})
		if f == (Filter{}) && fresh == (Freshness{}) && eq == (fieldEq{}) && (h.Below || info.Residual > 0) {
			return nil, s, eq, info
		}
		candidates = s.linkRange(f.LinkPrefix)
	}
	return candidates, nil, eq, info
}

// tupleSource is xq's Options.Tuples over planCandidates' answer, with the
// plan: each candidate that passes the filter and the field equalities is
// made fresh and handed over as its revision's shared element, until visit
// declines. A freshness-substituted copy is rendered privately: the pull
// that produced it has already stored a new revision, which carries its own
// rendering from the next query on. For a scan the memo answers it returns
// no source but the pinned set to evaluate over.
func (r *Registry) tupleSource(h xq.TupleHead, f Filter, fresh Freshness) (func(func(*xmldoc.Node) bool), *tupleSet, PlanInfo) {
	candidates, memo, eq, info := r.planCandidates(h, f, fresh)
	if memo != nil {
		return nil, memo, info
	}
	return func(visit func(*xmldoc.Node) bool) {
		var now time.Time
		if fresh != (Freshness{}) {
			now = r.cfg.Now() // only freshness reads the clock
		}
		for _, v := range candidates {
			t := v.Tuple
			if !f.match(t) || !eq.match(t) {
				continue
			}
			elem := v.element()
			if ft := r.ensureFresh(t, fresh, now); ft != t {
				elem = ft.ToXML()
				elem.Renumber()
			}
			if !visit(elem) {
				return
			}
		}
	}, nil, info
}
