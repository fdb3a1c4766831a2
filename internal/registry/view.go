// Tuple-set snapshots: the one structure every XQuery is answered from
// (thesis Ch. 4).
//
// Each stored tuple revision is rendered to a <tuple> element once. The
// rendering is immutable, parentless, numbered only within its own subtree,
// frozen (serialized once, so every answer copies its bytes), and held by
// the stored value itself, so it lives exactly as long as the revision
// does. A tuple set is a <tupleset> document whose root lists those shared
// elements in link order; it too is immutable once published.
// A query pins the current tuple set of its filter by loading one atomic
// pointer and evaluates on it with no lock held, so a slow Emit callback
// blocks nobody and results alias the snapshot safely. A tuple source
// (plan.go) selects the same elements through the store's indexes, and a
// walked scan or an unindexed MinQuery reads the unfiltered set's
// link-ordered members rather than copying and sorting the store; an
// unfiltered scan with work below the tuple step is evaluated over that
// set with its memo.
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
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
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

// element returns the revision's shared <tuple> element, frozen: every
// answer that writes it, or any node of it, copies its bytes. Callers must
// not mutate it or attach it with AppendChild: it has no parent on purpose.
func (s *stored) element() *xmldoc.Node {
	s.render.Do(func() {
		s.elem = s.ToXML()
		s.elem.Freeze()
	})
	return s.elem
}

const never = math.MaxInt64 // a deadline or timestamp that does not exist

func unixOrNever(t time.Time) int64 {
	if t.IsZero() {
		return never
	}
	return t.UnixNano()
}

// memberOf returns the element and the deadline a tuple set lists for a
// store entry.
func memberOf(e softstate.Entry[*stored]) (*xmldoc.Node, int64) {
	return e.Value.element(), unixOrNever(e.Expires)
}

// uncached is 1 for a revision without a cached content copy.
func uncached(v *stored) int {
	if v.Content == nil {
		return 1
	}
	return 0
}

// tupleSet is one immutable snapshot of the tuples matching a filter.
type tupleSet struct {
	doc     *xmldoc.Node // <tupleset> document
	root    *xmldoc.Node // its root; the children are shared elements in link order
	gen     uint64       // store generation the set is synced to
	vals    []*stored    // parallel to root.Children: the revisions they render
	expires []int64      // parallel too, pointer-free: soft-state deadlines in UnixNano (a Touch moves one without a new revision); never = immortal

	// Aggregates for O(1) staleness checks at query time; an advance counts
	// missing from the members it changes.
	minExpiry int64     // earliest soft-state deadline of a member; never if none
	missing   int       // members without a cached content copy
	minTS4    int64     // oldest cached-content timestamp, never if none: oldestTS4 sets it once
	ts4Once   sync.Once // guards minTS4

	// memo is what evaluations over doc learn about it: node lists, value
	// indexes, key columns and member ranks, built by the first query that
	// needs them and read by every later one. It dies with the set; an
	// advance from the journal carries what is worth carrying to the
	// successor's, so it needs no eviction of its own.
	memo xq.Memo
}

// newTupleSet publishes members (already in link order) as a document. The
// document node, the root and its attribute are numbered before the shared
// elements are listed, so no shared element is ever written to.
func newTupleSet(registry string, gen uint64, kids []*xmldoc.Node, expires []int64, vals []*stored, missing int) *tupleSet {
	s := &tupleSet{gen: gen, expires: expires, vals: vals, minExpiry: never, missing: missing}
	s.root = xmldoc.NewElement("tupleset")
	s.root.SetAttr("registry", registry)
	s.doc = xmldoc.NewDocument()
	s.doc.AppendChild(s.root)
	s.doc.Renumber()
	s.root.Children = kids
	for _, t := range expires {
		s.minExpiry = min(s.minExpiry, t)
	}
	return s
}

// oldestTS4 returns minTS4, reading every member the first time: only a
// MaxAge demand asks.
func (s *tupleSet) oldestTS4() int64 {
	s.ts4Once.Do(func() {
		s.minTS4 = never
		for _, v := range s.vals {
			if v.Content != nil {
				s.minTS4 = min(s.minTS4, unixOrNever(v.TS4))
			}
		}
	})
	return s.minTS4
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
	return fresh.MaxAge > 0 && s.oldestTS4() != never && now.UnixNano()-s.oldestTS4() > int64(fresh.MaxAge)
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

// pinTupleSet is pin for a query evaluated over the snapshot: it counts
// the view hit or miss (the value behind ViewHits), records it for the
// flight recorder under tx and, unless a freshness pass already did,
// counts every content-bearing member served from cache as a cache hit,
// mirroring BuildView.
func (r *Registry) pinTupleSet(f Filter, fresh Freshness, tx string) *tupleSet {
	s, hit, pulled := r.pin(f, fresh)
	event := telemetry.FlightViewMiss
	if hit {
		r.viewHits.Add(1)
		event = telemetry.FlightViewHit
	} else {
		r.viewMisses.Add(1)
	}
	r.flight.Record(tx, event, r.cfg.Name, "", 0, "")
	if !pulled {
		r.cacheHits.Add(int64(len(s.vals) - s.missing))
	}
	return s
}

// advanceTupleSet builds the successor of old (nil on first use) at the
// current store generation: the journaled keys since old.gen are re-read
// and merged into old's members, passively expired tuples are dropped, and
// when the journal no longer reaches back to old.gen the set is re-read
// from the store in full. Either way an unchanged revision keeps its
// rendering, because the rendering lives on the stored value. A merge
// also carries old's memo to the successor's; a full re-read does not.
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
	var expires []int64
	var vals []*stored
	var from []int32
	missing := 0
	if journaled {
		kids, expires, vals, from, missing = r.mergeChanges(old, keys, f, now.UnixNano())
	} else {
		live := sortEntries(r.liveMatching(f))
		kids, expires, vals = make([]*xmldoc.Node, len(live)), make([]int64, len(live)), make([]*stored, len(live))
		for i, e := range live {
			kids[i], expires[i] = memberOf(e)
			vals[i], missing = e.Value, missing+uncached(e.Value)
		}
	}
	s := newTupleSet(r.cfg.Name, gen, kids, expires, vals, missing)
	if journaled {
		n, dropped := s.memo.Carry(s.doc, &old.memo, func() []int32 { return from })
		r.memoCarries.Add(int64(n))
		r.memoCarry.Add(int64(n))
		r.memoDrops.Add(int64(dropped))
		r.memoDrop.Add(int64(dropped))
	}
	r.viewBuildSeconds.ObserveSince(t0)
	return s
}

// mergeChanges returns old's members with every key in keys replaced by its
// current store state (dropped when gone or no longer matching f) and every
// passively expired member removed, in link order; for each member the
// position in old of the very same element, or -1 (a refreshed revision
// renders a new one); and how many lack a cached content copy.
func (r *Registry) mergeChanges(old *tupleSet, keys []string, f Filter, now int64) ([]*xmldoc.Node, []int64, []*stored, []int32, int) {
	sort.Strings(keys)
	oldKids, missing := old.root.Children, old.missing
	kids := make([]*xmldoc.Node, 0, len(oldKids)+len(keys))
	expires := make([]int64, 0, cap(kids))
	vals := make([]*stored, 0, cap(kids))
	from := make([]int32, 0, cap(kids))
	prune := old.minExpiry <= now
	i := 0 // first old member not yet carried over or superseded
	carryTo := func(j int) {
		if !prune {
			kids, expires, vals = append(kids, oldKids[i:j]...), append(expires, old.expires[i:j]...), append(vals, old.vals[i:j]...)
			for ; i < j; i++ {
				from = append(from, int32(i))
			}
		}
		for ; i < j; i++ {
			if old.expires[i] > now {
				kids, expires, vals, from = append(kids, oldKids[i]), append(expires, old.expires[i]), append(vals, old.vals[i]), append(from, int32(i))
			} else {
				missing -= uncached(old.vals[i])
			}
		}
	}
	for _, k := range keys {
		carryTo(i + sort.Search(len(oldKids)-i, func(n int) bool { return old.vals[i+n].Link >= k }))
		was := -1
		if i < len(oldKids) && old.vals[i].Link == k {
			was, i, missing = i, i+1, missing-uncached(old.vals[i]) // superseded by the store's current state, read next
		}
		if e, live := r.store.GetEntry(k); live && f.match(e.Value.Tuple) {
			kid, t := memberOf(e)
			if was >= 0 && oldKids[was] != kid {
				was = -1
			}
			kids, expires, vals, from = append(kids, kid), append(expires, t), append(vals, e.Value), append(from, int32(was))
			missing += uncached(e.Value)
		}
	}
	carryTo(len(oldKids))
	return kids, expires, vals, from, missing
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
