// Tuple-set snapshots: the one structure every XQuery is answered from
// (thesis Ch. 4).
//
// Each stored tuple revision is rendered to a <tuple> element once. The
// rendering is immutable, parentless, numbered only within its own subtree,
// and held by the stored value itself, so it lives exactly as long as the
// revision does. A tuple set is a <tupleset> document whose root lists
// those shared elements in link order; it too is immutable once published.
// A query pins the current tuple set of its filter by loading one atomic
// pointer and evaluates on it with no lock held, so a slow Emit callback
// blocks nobody and results alias the snapshot safely. The pushdown planner
// (plan.go) selects the same elements through the store's indexes, and a
// planned scan or an unindexed MinQuery reads the unfiltered set's
// link-ordered members rather than copying and sorting the store.
//
// A tuple set advances at query time, never at publish time: when the
// store generation has moved or an included tuple has passively expired,
// the querier merges the change journal's keys into a new root (a pointer
// copy of the unchanged entries plus the re-read changed ones) and
// publishes it. Advances for one filter are serialized by a mutex that no
// reader of a current tuple set ever takes.
package registry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/softstate"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
)

// Secondary-index names registered on the store so selective filters skip
// the full scan.
const (
	indexType    = "type"
	indexContext = "ctx"
)

// maxCachedViews bounds the number of per-filter tuple sets. Discovery
// traffic concentrates on a handful of filter shapes; beyond that, the
// least recently used one is evicted and rebuilt on demand, so a burst of
// one-off filters cannot displace the hot filters' tuple sets.
const maxCachedViews = 16

// stored is one tuple revision as the soft-state store holds it: the tuple
// plus its <tuple> rendering, built on first use. Every store mutation that
// changes the value installs a new stored, so the rendering can never
// outlive or lag its revision.
type stored struct {
	*tuple.Tuple
	render sync.Once
	elem   *xmldoc.Node
}

// element returns the revision's shared <tuple> element. Callers must not
// mutate it or attach it with AppendChild: it has no parent on purpose.
func (s *stored) element() *xmldoc.Node {
	s.render.Do(func() {
		s.elem = s.ToXML()
		s.elem.Renumber()
	})
	return s.elem
}

// memberMeta is the soft-state facts a tuple set keeps inline per member,
// parallel to the root's children, so that an advance carries unchanged
// members over and recomputes the aggregates without touching the tuples.
// It is pointer-free on purpose: the garbage collector never scans it.
type memberMeta struct {
	expires int64 // soft-state deadline in UnixNano (a Touch moves it without a new revision); never = immortal
	ts4     int64 // timestamp of the cached content copy in UnixNano; never = unstamped, noContent = no copy
}

const (
	never     = math.MaxInt64 // a deadline or timestamp that does not exist
	noContent = math.MinInt64 // memberMeta.ts4 of a tuple without a cached content copy
)

func unixOrNever(t time.Time) int64 {
	if t.IsZero() {
		return never
	}
	return t.UnixNano()
}

// memberOf returns the element and inline facts a tuple set lists for a
// store entry.
func memberOf(e softstate.Entry[*stored]) (*xmldoc.Node, memberMeta) {
	m := memberMeta{expires: unixOrNever(e.Expires), ts4: noContent}
	if e.Value.Content != nil {
		m.ts4 = unixOrNever(e.Value.TS4)
	}
	return e.Value.element(), m
}

// tupleSet is one immutable snapshot of the tuples matching a filter.
type tupleSet struct {
	doc  *xmldoc.Node // <tupleset> document
	root *xmldoc.Node // its root; the children are shared elements in link order
	gen  uint64       // store generation the set is synced to
	meta []memberMeta // parallel to root.Children
	vals []*stored    // parallel to root.Children: the revisions they render

	// Aggregates for O(1) staleness checks at query time.
	minExpiry int64 // earliest soft-state deadline of a member; never if none
	minTS4    int64 // oldest cached-content timestamp; never if none
	missing   int   // members without a cached content copy
}

// newTupleSet publishes members (already in link order) as a document. The
// document node, the root and its attribute are numbered before the shared
// elements are listed, so no shared element is ever written to.
func newTupleSet(registry string, gen uint64, kids []*xmldoc.Node, meta []memberMeta, vals []*stored) *tupleSet {
	s := &tupleSet{gen: gen, meta: meta, vals: vals, minExpiry: never, minTS4: never}
	s.root = xmldoc.NewElement("tupleset")
	s.root.SetAttr("registry", registry)
	s.doc = xmldoc.NewDocument()
	s.doc.AppendChild(s.root)
	s.doc.Renumber()
	s.root.Children = kids
	for _, m := range meta {
		s.minExpiry = min(s.minExpiry, m.expires)
		if m.ts4 == noContent {
			s.missing++
		} else {
			s.minTS4 = min(s.minTS4, m.ts4)
		}
	}
	return s
}

// current reports whether the set reflects every store mutation up to
// generation target and no member has passively expired.
func (s *tupleSet) current(target uint64, now time.Time) bool {
	return s != nil && s.gen >= target && s.minExpiry > now.UnixNano()
}

// freshnessSuspect reports whether the set cannot prove the freshness
// demands are already met, so a pull pass over the store is needed.
func (s *tupleSet) freshnessSuspect(fresh Freshness, now time.Time) bool {
	if s == nil {
		return true
	}
	if fresh.PullMissing && s.missing > 0 {
		return true
	}
	return fresh.MaxAge > 0 && s.minTS4 != never && now.UnixNano()-s.minTS4 > int64(fresh.MaxAge)
}

// linkRange returns the members whose link starts with prefix, in link
// order: they are contiguous, so two binary searches bound them. The result
// is a capped sub-slice of the immutable set, never a copy.
func (s *tupleSet) linkRange(prefix string) []*stored {
	lo := sort.Search(len(s.vals), func(i int) bool { return s.vals[i].Link >= prefix })
	hi := lo + sort.Search(len(s.vals)-lo, func(i int) bool { return !strings.HasPrefix(s.vals[lo+i].Link, prefix) })
	return s.vals[lo:hi:hi]
}

// filterView is the slot holding one filter's current tuple set.
type filterView struct {
	cur     atomic.Pointer[tupleSet]
	advance sync.Mutex // serializes advances; pinning a current set never takes it

	// lastUse is the Registry.viewClock reading of the most recent lookup,
	// guarded by Registry.viewMu.
	lastUse uint64
}

// viewFor returns (creating if needed) the slot for a filter, evicting the
// least recently used slot when the cache is full. Queries that pinned an
// evicted slot's tuple set keep working against it.
func (r *Registry) viewFor(f Filter) *filterView {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	r.viewClock++
	if v, ok := r.views[f]; ok {
		v.lastUse = r.viewClock
		return v
	}
	if len(r.views) >= maxCachedViews {
		var victim Filter
		oldest := uint64(math.MaxUint64)
		for k, v := range r.views {
			if v.lastUse < oldest {
				oldest, victim = v.lastUse, k
			}
		}
		delete(r.views, victim)
	}
	v := &filterView{lastUse: r.viewClock}
	r.views[f] = v
	return v
}

// pin returns the filter's tuple set, synced at least to the store
// generation observed at call time, whether an already-current set was
// pinned, and whether a freshness pass pulled against the store first. It
// counts no hits or misses: callers account for what they read. The set is
// immutable: the caller holds no lock and may keep nodes from it for as
// long as it likes.
func (r *Registry) pin(f Filter, fresh Freshness) (s *tupleSet, hit, pulled bool) {
	v := r.viewFor(f)
	now := r.cfg.Now()
	if (fresh.PullMissing || fresh.MaxAge > 0) && v.cur.Load().freshnessSuspect(fresh, now) {
		// Pull against the store first; successful pulls bump the store
		// generation and flow into the advance below. ensureFresh does the
		// per-tuple cache-hit/miss accounting on this path.
		pulled = true
		for _, e := range r.liveMatching(f) {
			r.ensureFresh(e.Value.Tuple, fresh, now)
		}
	}
	target := r.store.Gen()
	s = v.cur.Load()
	if hit = s.current(target, now); !hit {
		v.advance.Lock()
		if s = v.cur.Load(); !s.current(target, now) {
			s = r.advanceTupleSet(s, f, now)
			v.cur.Store(s)
		}
		v.advance.Unlock()
	}
	return s, hit, pulled
}

// pinTupleSet is pin for an interpreted query: it counts the view hit or
// miss (the value behind ViewHits, reported per query to the flight
// recorder) and, unless a freshness pass already did, every content-bearing
// member served from cache as a cache hit, mirroring BuildView.
func (r *Registry) pinTupleSet(f Filter, fresh Freshness) (*tupleSet, bool) {
	s, hit, pulled := r.pin(f, fresh)
	if hit {
		r.viewHits.Add(1)
	} else {
		r.viewMisses.Add(1)
	}
	if !pulled {
		r.cacheHits.Add(int64(len(s.meta) - s.missing))
	}
	return s, hit
}

// advanceTupleSet builds the successor of old (nil on first use) at the
// current store generation: the journaled keys since old.gen are re-read
// and merged into old's members, passively expired tuples are dropped, and
// when the journal no longer reaches back to old.gen the set is re-read
// from the store in full. Either way an unchanged revision keeps its
// rendering, because the rendering lives on the stored value.
func (r *Registry) advanceTupleSet(old *tupleSet, f Filter, now time.Time) *tupleSet {
	t0 := time.Now()
	r.viewRebuilds.Add(1)
	// Read before the journal: a mutation racing in between is re-read on
	// the next advance, which is harmless because members carry full state.
	gen := r.store.Gen()
	var keys []string
	journaled := false
	if old != nil {
		keys, journaled = r.store.ChangesSince(old.gen)
	}
	var kids []*xmldoc.Node
	var meta []memberMeta
	var vals []*stored
	if journaled {
		kids, meta, vals = r.mergeChanges(old, keys, f, now.UnixNano())
	} else {
		live := sortEntries(r.liveMatching(f))
		kids, meta, vals = make([]*xmldoc.Node, len(live)), make([]memberMeta, len(live)), make([]*stored, len(live))
		for i, e := range live {
			kids[i], meta[i] = memberOf(e)
			vals[i] = e.Value
		}
	}
	s := newTupleSet(r.cfg.Name, gen, kids, meta, vals)
	r.viewBuildSeconds.ObserveSince(t0)
	return s
}

// mergeChanges returns old's members with every key in keys replaced by its
// current store state (dropped when gone or no longer matching f) and every
// passively expired member removed, in link order.
func (r *Registry) mergeChanges(old *tupleSet, keys []string, f Filter, now int64) ([]*xmldoc.Node, []memberMeta, []*stored) {
	sort.Strings(keys)
	oldKids := old.root.Children
	kids := make([]*xmldoc.Node, 0, len(oldKids)+len(keys))
	meta := make([]memberMeta, 0, cap(kids))
	vals := make([]*stored, 0, cap(kids))
	prune := old.minExpiry <= now
	i := 0 // first old member not yet carried over or superseded
	carryTo := func(j int) {
		if !prune {
			kids, meta, vals = append(kids, oldKids[i:j]...), append(meta, old.meta[i:j]...), append(vals, old.vals[i:j]...)
			i = j
		}
		for ; i < j; i++ {
			if old.meta[i].expires > now {
				kids, meta, vals = append(kids, oldKids[i]), append(meta, old.meta[i]), append(vals, old.vals[i])
			}
		}
	}
	for _, k := range keys {
		carryTo(i + sort.Search(len(oldKids)-i, func(n int) bool { return old.vals[i+n].Link >= k }))
		if i < len(oldKids) && old.vals[i].Link == k {
			i++ // superseded by the store's current state, read next
		}
		if e, live := r.store.GetEntry(k); live && f.match(e.Value.Tuple) {
			kid, m := memberOf(e)
			kids, meta, vals = append(kids, kid), append(meta, m), append(vals, e.Value)
		}
	}
	carryTo(len(oldKids))
	return kids, meta, vals
}

// liveMatching snapshots the live entries matching a filter, using the
// store's secondary indexes to avoid full scans for selective filters.
func (r *Registry) liveMatching(f Filter) []softstate.Entry[*stored] {
	var entries []softstate.Entry[*stored]
	switch {
	case f.Type != "":
		entries = r.store.LiveBy(indexType, f.Type)
	case f.Context != "":
		entries = r.store.LiveBy(indexContext, f.Context)
	default:
		entries = r.store.Live()
	}
	out := entries[:0]
	for _, e := range entries {
		if f.match(e.Value.Tuple) {
			out = append(out, e)
		}
	}
	return out
}

// sortEntries orders entries by link, the tuple set's document order.
func sortEntries(es []softstate.Entry[*stored]) []softstate.Entry[*stored] {
	if len(es) > 1 {
		sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
	}
	return es
}
