package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"wsda/internal/softstate"
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// Fetcher retrieves the current content of a content link (the registry's
// pull side of the hybrid pull/push model).
type Fetcher interface {
	// Fetch dereferences one content link to its current XML document.
	Fetch(link string) (*xmldoc.Node, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(link string) (*xmldoc.Node, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(link string) (*xmldoc.Node, error) { return f(link) }

// Config configures a Registry.
type Config struct {
	Name string // registry identifier, e.g. "registry.cern.ch"

	// DefaultTTL applies when a publication does not carry an explicit
	// expiry; MinTTL/MaxTTL clamp client-requested lifetimes (a registry is
	// free to shorten or lengthen requested TTLs, thesis Ch. 4.6).
	DefaultTTL time.Duration
	MinTTL     time.Duration // lower clamp on granted lifetimes
	MaxTTL     time.Duration // upper clamp on granted lifetimes

	// Fetcher pulls content copies from providers; nil disables pulls
	// (cached or inline-pushed content only).
	Fetcher Fetcher

	// MinPullInterval throttles pulls per content link: a second pull for
	// the same link within the interval is suppressed and stale content is
	// served instead (thesis Ch. 4.7.1).
	MinPullInterval time.Duration

	// MaxQuerySteps bounds the work of a single XQuery evaluation; 0 means
	// unlimited.
	MaxQuerySteps int

	// JournalCap sets the soft-state change-journal capacity: how many of
	// the most recent mutations incremental readers (tuple-set snapshots, the
	// replication feed) can replay before being forced into a full resync
	// or snapshot re-bootstrap. 0 uses softstate.DefaultJournalCap.
	JournalCap int

	// Now is the clock; nil means time.Now. Benchmarks inject virtual time.
	Now func() time.Time

	// Metrics, when set, receives latency histograms for the publish,
	// minquery, xquery and sweep paths, labeled by registry name. Nil
	// disables metric collection at near-zero cost.
	Metrics *telemetry.Metrics

	// Flight, when set, receives per-transaction planning events
	// (planned, plan-fallback, view-hit, view-miss) for evaluations that
	// carry a QueryOptions.TxID. Nil disables recording.
	Flight *telemetry.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "registry"
	}
	if c.DefaultTTL == 0 {
		c.DefaultTTL = 10 * time.Minute
	}
	if c.MaxTTL == 0 {
		c.MaxTTL = 24 * time.Hour
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats are cumulative registry counters.
type Stats struct {
	Publishes   int64 // first-time publications
	Refreshes   int64 // soft-state refreshes
	Expirations int64 // tuples swept after expiry
	Queries     int64 // XQuery evaluations
	MinQueries  int64 // minimal-interface queries
	CacheHits   int64 // queries served from fresh cached content
	CacheMisses int64 // tuples needing a pull at query time
	Pulls       int64 // successful content pulls
	PullErrors  int64 // failed pulls
	Throttled   int64 // pulls suppressed by MinPullInterval

	ViewHits     int64 // queries over a pinned tuple set that found it already current
	ViewMisses   int64 // queries over a pinned tuple set that found it behind the store
	ViewRebuilds int64 // tuple-set advances, from the journal or in full, whoever paid (scans and MinQuery too)

	PlanHits      int64 // queries whose tuples came from a tuple source (index or scan)
	PlanFallbacks int64 // queries answered over the pinned snapshot

	MemoHits    int64 // node lists, indexes and rank maps read from a pinned tuple set's memo
	MemoBuilds  int64 // node lists, indexes and rank maps installed in a pinned tuple set's memo
	MemoCarries int64 // node lists and indexes an advance carried to the successor set's memo
}

// Registry is a hyper registry node. It is safe for concurrent use.
type Registry struct {
	cfg   Config
	store *softstate.Store[*stored]

	pullMu   sync.Mutex
	lastPull map[string]time.Time

	// queryCache memoizes compiled queries by source text; discovery
	// clients re-issue the same query shapes constantly.
	cacheMu    sync.RWMutex
	queryCache map[string]*xq.Query

	// views hold the current tuple set of each recently used filter (see
	// view.go); flights single-flight concurrent content pulls per link so
	// a freshness stampede issues one fetch.
	viewMu    sync.Mutex
	views     map[Filter]*filterView
	viewClock uint64 // LRU clock for view eviction; guarded by viewMu
	flightMu  sync.Mutex
	flights   map[string]*pullFlight

	queries, minQueries                atomic.Int64
	cacheHits, cacheMisses             atomic.Int64
	pulls, pullErrors, throttledCnt    atomic.Int64
	viewHits, viewMisses, viewRebuilds atomic.Int64
	planHits, planFallbacks            atomic.Int64
	memoHits, memoBuilds, memoCarries  atomic.Int64

	// Telemetry handles; all nil when Config.Metrics/Flight are unset, in
	// which case every observation below is a nil-check no-op.
	publishSeconds   *telemetry.Histogram
	minQuerySeconds  *telemetry.Histogram
	xquerySeconds    *telemetry.Histogram
	viewBuildSeconds *telemetry.Histogram
	planHitIndex     *telemetry.Counter
	planHitScan      *telemetry.Counter
	planFallback     *telemetry.Counter
	memoHit          *telemetry.Counter
	memoBuild        *telemetry.Counter
	memoOverflow     *telemetry.Counter
	memoCarry        *telemetry.Counter
	flight           *telemetry.FlightRecorder
}

// New creates a registry.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:        cfg,
		store:      softstate.New[*stored](cfg.Now, softstate.WithJournalCap(cfg.JournalCap)),
		lastPull:   make(map[string]time.Time),
		queryCache: make(map[string]*xq.Query),
		views:      make(map[Filter]*filterView),
		flights:    make(map[string]*pullFlight),
		flight:     cfg.Flight,
	}
	r.store.AddIndex(indexType, func(t *stored) string { return t.Type })
	r.store.AddIndex(indexContext, func(t *stored) string { return t.Context })
	if m := cfg.Metrics; m != nil {
		r.publishSeconds = m.HistogramVec("wsda_registry_publish_seconds",
			"Latency of tuple publications.", nil, "registry").With(cfg.Name)
		r.minQuerySeconds = m.HistogramVec("wsda_registry_minquery_seconds",
			"Latency of minimal-interface queries.", nil, "registry").With(cfg.Name)
		r.xquerySeconds = m.HistogramVec("wsda_registry_xquery_seconds",
			"Latency of XQuery evaluations over the tuple-set view.", nil, "registry").With(cfg.Name)
		r.viewBuildSeconds = m.HistogramVec("wsda_registry_view_build_seconds",
			"Latency of tuple-set advances, from the journal or in full.", nil, "registry").With(cfg.Name)
		r.store.InstrumentSweeps(m.HistogramVec("wsda_registry_sweep_seconds",
			"Latency of expired-tuple sweeps.", nil, "registry").With(cfg.Name))
		r.store.InstrumentJournalTruncations(m.CounterVec("wsda_softstate_journal_truncations_total",
			"Change reads that fell off the bounded journal, forcing a full resync or replica re-bootstrap.",
			"registry").With(cfg.Name))
		planHits := m.CounterVec("wsda_registry_plan_hit_total",
			"XQuery evaluations whose tuples came from a tuple source, by access mode.",
			"registry", "mode")
		r.planHitIndex = planHits.With(cfg.Name, "index")
		r.planHitScan = planHits.With(cfg.Name, "scan")
		r.planFallback = m.CounterVec("wsda_registry_plan_fallback_total",
			"XQuery evaluations answered over the pinned snapshot: their shape has no tuple head.",
			"registry").With(cfg.Name)
		memo := m.CounterVec("wsda_registry_memo_total",
			"Node lists, value indexes and rank maps read from (hit) or installed in (build) a pinned tuple set's memo, kept private because it was full (overflow), or carried to its successor's by an advance (carry).",
			"registry", "outcome")
		r.memoHit = memo.With(cfg.Name, "hit")
		r.memoBuild = memo.With(cfg.Name, "build")
		r.memoOverflow = memo.With(cfg.Name, "overflow")
		r.memoCarry = memo.With(cfg.Name, "carry")
	}
	return r
}

// Name returns the registry identifier.
func (r *Registry) Name() string { return r.cfg.Name }

// ErrBadTTL reports a nonsensical requested lifetime.
var ErrBadTTL = errors.New("registry: negative TTL")

// Publish inserts or refreshes a tuple with the requested soft-state
// lifetime (0 uses the registry default; the registry clamps to its
// configured bounds). A refresh without content keeps the previously cached
// content copy — re-publication doubles as a heartbeat. It returns the
// granted TTL.
func (r *Registry) Publish(t *tuple.Tuple, ttl time.Duration) (time.Duration, error) {
	if r.publishSeconds != nil {
		defer r.publishSeconds.ObserveSince(time.Now())
	}
	now := r.cfg.Now()
	if ttl < 0 {
		return 0, ErrBadTTL
	}
	if err := t.Validate(now); err != nil {
		return 0, err
	}
	granted := r.clampTTL(ttl)
	pub := t.Clone()
	if pub.Content != nil && pub.TS4.IsZero() {
		pub.TS4 = now // provider pushed content inline
	}
	r.store.Upsert(t.Link, granted, func(old *stored, exists bool) *stored {
		if exists {
			pub.TS1 = old.TS1
			if pub.Content == nil && old.Content != nil {
				pub.Content = old.Content
				pub.TS4 = old.TS4
			}
		} else {
			pub.TS1 = now
		}
		pub.TS2 = now
		pub.TS3 = now.Add(granted)
		return &stored{Tuple: pub}
	})
	return granted, nil
}

func (r *Registry) clampTTL(ttl time.Duration) time.Duration {
	if ttl == 0 {
		ttl = r.cfg.DefaultTTL
	}
	if r.cfg.MinTTL > 0 && ttl < r.cfg.MinTTL {
		ttl = r.cfg.MinTTL
	}
	if r.cfg.MaxTTL > 0 && ttl > r.cfg.MaxTTL {
		ttl = r.cfg.MaxTTL
	}
	return ttl
}

// Unpublish removes a tuple explicitly, reporting whether it existed.
func (r *Registry) Unpublish(link string) bool { return r.store.Delete(link) }

// Get returns a copy of the live tuple under link.
func (r *Registry) Get(link string) (*tuple.Tuple, bool) {
	t, ok := r.store.Get(link)
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// Len returns the number of live tuples.
func (r *Registry) Len() int { return r.store.Len() }

// Sweep removes expired tuples, returning how many were collected.
func (r *Registry) Sweep() int { return r.store.Sweep() }

// Filter selects tuples by attribute for the minimal query interface
// (thesis Ch. 5.2: MinQuery primitive). Zero fields match everything.
type Filter struct {
	Type       string // exact tuple type, e.g. "service"
	Context    string // exact tuple context
	LinkPrefix string // prefix match on the tuple link
}

// Matches reports whether t passes the filter. The client SDK uses it for
// exact cache invalidation: a feed upsert kills exactly the cached result
// sets whose filter the new tuple state matches.
func (f Filter) Matches(t *tuple.Tuple) bool { return f.match(t) }

func (f Filter) match(t *tuple.Tuple) bool {
	if f.Type != "" && t.Type != f.Type {
		return false
	}
	if f.Context != "" && t.Context != f.Context {
		return false
	}
	if f.LinkPrefix != "" && !strings.HasPrefix(t.Link, f.LinkPrefix) {
		return false
	}
	return true
}

// MinQuery returns copies of all live tuples matching the filter, sorted by
// link for determinism. A filter without type or context reads the pinned
// Filter{} tuple set, already in link order, narrowed by binary search to
// the link prefix; a type or context filter reads its index bucket.
func (r *Registry) MinQuery(f Filter) []*tuple.Tuple {
	if r.minQuerySeconds != nil {
		defer r.minQuerySeconds.ObserveSince(time.Now())
	}
	r.minQueries.Add(1)
	if f.Type == "" && f.Context == "" {
		s, _, _ := r.pin(Filter{}, Freshness{})
		members := s.linkRange(f.LinkPrefix)
		out := make([]*tuple.Tuple, len(members))
		for i, v := range members {
			out[i] = v.Clone()
		}
		return out
	}
	entries := r.liveMatching(f)
	out := make([]*tuple.Tuple, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Value.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Link < out[j].Link })
	return out
}

// Freshness is the client-driven content freshness policy of a query
// (thesis Ch. 4.7): the client bounds how stale cached content copies may
// be, and whether missing content must be pulled.
type Freshness struct {
	// MaxAge is the oldest acceptable cached copy. Zero accepts any cached
	// copy (including none).
	MaxAge time.Duration
	// PullMissing pulls content for tuples that have no cached copy at all.
	PullMissing bool
}

// QueryOptions configure one XQuery evaluation.
type QueryOptions struct {
	Filter    Filter    // pre-filter selecting the tuple set the query sees
	Freshness Freshness // content freshness demands
	// Emit streams result items as they are produced (pipelined queries,
	// thesis Ch. 6.5). Return false to stop early.
	Emit func(xq.Item) bool
	// Held, when set with Emit, is called once before the evaluation emits
	// items it already holds together (xq.Options.Held): the rest of the
	// result may leave back to back, flushed once when Query returns.
	Held func()
	// Vars are external variable bindings.
	Vars map[string]xq.Sequence
	// TxID, when set, tags this evaluation's flight-recorder events with
	// the discovery transaction it serves.
	TxID string
	// Explain, when non-nil, receives a description of how the evaluation
	// was executed (pushdown plan or interpreter).
	Explain *PlanInfo
}

// Query evaluates an XQuery over the registry's tuple set, the synthetic
// document
//
//	<tupleset registry="NAME"> <tuple ...>...</tuple>* </tupleset>
//
// so queries navigate /tupleset/tuple/content/... as in the thesis
// examples. Content freshness is enforced per the options before the query
// is evaluated.
func (r *Registry) Query(query string, opts QueryOptions) (xq.Sequence, error) {
	// The cache key is the canonicalized source, so trivially reformatted
	// copies of one query share a slot (and a compiled plan) instead of
	// crowding each other out.
	key := canonicalQuerySource(query)
	r.cacheMu.RLock()
	q, ok := r.queryCache[key]
	r.cacheMu.RUnlock()
	if !ok {
		var err error
		q, err = xq.Compile(query)
		if err != nil {
			return nil, err
		}
		r.cacheMu.Lock()
		// Bound the cache with random-victim eviction (Go's randomized map
		// iteration picks the victim), so a hot steady-state query mix is
		// never dropped en masse.
		if len(r.queryCache) >= maxCachedQueries {
			for k := range r.queryCache {
				delete(r.queryCache, k)
				break
			}
		}
		r.queryCache[key] = q
		r.cacheMu.Unlock()
	}
	return r.QueryCompiled(q, opts)
}

// canonicalQuerySource normalizes query text for cache keying: leading and
// trailing space is trimmed and interior whitespace runs collapse to one
// space, except inside string literals. A query containing a direct
// element constructor (a '<' followed by a name character, outside any
// string) or a comment is only trimmed, since constructor content is
// whitespace-sensitive raw text and a comment may hold a quote that would
// throw off the literal tracking. Canonicalization never changes query
// semantics, so one key never stands for two different queries.
func canonicalQuerySource(src string) string {
	src = strings.Trim(src, " \t\n\r") // the lexer's whitespace, no more: it rejects the rest
	if strings.Contains(src, "(:") {
		return src // a comment, or "(:" in a literal: keep verbatim
	}
	var sb strings.Builder
	sb.Grow(len(src))
	var quote byte // active string-literal delimiter, 0 outside literals
	space := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			sb.WriteByte(c)
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case ' ', '\t', '\n', '\r':
			space = true
			continue
		case '<':
			if i+1 < len(src) {
				r, _ := utf8.DecodeRuneInString(src[i+1:])
				if isConstructorStart(r) {
					return src // constructor: raw text, keep verbatim
				}
			}
		}
		if space {
			sb.WriteByte(' ')
			space = false
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// isConstructorStart reports whether a rune after '<' begins an element
// constructor name (mirroring the parser's constructor detection).
func isConstructorStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// maxCachedQueries bounds the compiled-query cache.
const maxCachedQueries = 1024

// QueryCompiled is Query for a pre-compiled expression, evaluated by xq
// once, buffered or streamed alike. A query with a tuple head reads its
// <tuple> members from a tuple source over the soft-state store's indexes
// (see plan.go), but for an unfiltered scan with work below the tuple
// step, which is evaluated over the pinned Filter{} set with its memo;
// everything else is evaluated over the filter's pinned tuple set (see
// view.go). Both hand xq the same shared per-revision
// <tuple> elements and hold no lock while evaluating or while Emit runs.
// Node items in the result are parts of those immutable elements, valid
// indefinitely; callers must not mutate them.
func (r *Registry) QueryCompiled(q *xq.Query, opts QueryOptions) (xq.Sequence, error) {
	if r.xquerySeconds != nil {
		defer r.xquerySeconds.ObserveSince(time.Now())
	}
	r.queries.Add(1)
	xo := xq.Options{MaxSteps: r.cfg.MaxQuerySteps, Emit: opts.Emit, Held: opts.Held, Vars: opts.Vars}
	info := PlanInfo{Mode: "view"}
	if h, ok := q.TupleHead(); ok {
		var s *tupleSet
		if xo.Tuples, s, info = r.tupleSource(h, opts.Filter, opts.Freshness); s != nil {
			xo.Context, xo.Memo, xo.MemoCounts = s.doc, &s.memo, &xq.MemoCounts{}
		}
		r.planHits.Add(1)
		if info.Mode == "scan" {
			r.planHitScan.Inc()
		} else {
			r.planHitIndex.Inc()
		}
		if r.flight != nil {
			r.flight.Record(opts.TxID, telemetry.FlightPlanned, r.cfg.Name, "", 0, info.String())
		}
	} else {
		r.planFallbacks.Add(1)
		r.planFallback.Inc()
		r.flight.Record(opts.TxID, telemetry.FlightPlanFallback, r.cfg.Name, "", 0, "interpreted")
		s := r.pinTupleSet(opts.Filter, opts.Freshness, opts.TxID)
		xo.Context, xo.Memo, xo.MemoCounts = s.doc, &s.memo, &xq.MemoCounts{}
	}
	if opts.Explain != nil {
		// Filled before the first Emit so streaming callers can surface
		// the plan (e.g. as a response header) ahead of the first item.
		*opts.Explain = info
	}
	seq, err := q.Eval(&xo)
	if mc := xo.MemoCounts; mc != nil {
		r.memoHits.Add(int64(mc.Hits))
		r.memoBuilds.Add(int64(mc.Builds))
		r.memoHit.Add(int64(mc.Hits))
		r.memoBuild.Add(int64(mc.Builds))
		r.memoOverflow.Add(int64(mc.Overflows))
	}
	return seq, err
}

// BuildView materializes the tuple set for a filter from scratch as a
// private, fully parented document, refreshing content copies as demanded
// by the freshness policy. No query calls it: it is the reference
// materialization that the differential tests compare pinned tuple sets
// against and that the cold-path benchmarks and experiments measure.
func (r *Registry) BuildView(f Filter, fresh Freshness) *xmldoc.Node {
	now := r.cfg.Now()
	root := xmldoc.NewElement("tupleset")
	root.SetAttr("registry", r.cfg.Name)
	for _, e := range sortEntries(r.liveMatching(f)) {
		root.AppendChild(r.ensureFresh(e.Value.Tuple, fresh, now).ToXML())
	}
	doc := xmldoc.NewDocument()
	doc.AppendChild(root)
	doc.Renumber()
	return doc
}

// ensureFresh applies the freshness policy to one tuple, pulling content
// when demanded and permitted by the throttle. On pull failure or throttle
// suppression the stale copy (possibly nil) is served.
func (r *Registry) ensureFresh(t *tuple.Tuple, fresh Freshness, now time.Time) *tuple.Tuple {
	needPull := false
	if t.Content == nil {
		if fresh.PullMissing {
			needPull = true
		}
	} else if fresh.MaxAge > 0 {
		if age, ok := t.ContentAge(now); ok && age > fresh.MaxAge {
			needPull = true
		}
	}
	if !needPull {
		if t.Content != nil {
			r.cacheHits.Add(1)
		}
		return t
	}
	r.cacheMisses.Add(1)
	if r.cfg.Fetcher == nil {
		return t
	}
	content, ok := r.pullContent(t, now)
	if !ok {
		return t
	}
	c := t.Clone()
	c.Content = content
	c.TS4 = now
	return c
}

// pullFlight is one in-progress content pull; concurrent callers for the
// same link wait on done and share the result instead of issuing duplicate
// fetches.
type pullFlight struct {
	done    chan struct{}
	content *xmldoc.Node
	err     error
}

// pullContent fetches the current content of t's link, single-flighted per
// link: one goroutine leads the fetch while concurrent callers wait for its
// result. The throttle applies only to the leader — joining an in-flight
// pull is free. On success the stored tuple's cached copy is updated
// without touching its soft-state deadline: a pull is not a publication.
func (r *Registry) pullContent(t *tuple.Tuple, now time.Time) (*xmldoc.Node, bool) {
	link := t.Link
	r.flightMu.Lock()
	if fl, ok := r.flights[link]; ok {
		r.flightMu.Unlock()
		<-fl.done
		return fl.content, fl.err == nil
	}
	if !r.admitPull(link, now) {
		r.flightMu.Unlock()
		r.throttledCnt.Add(1)
		return nil, false
	}
	fl := &pullFlight{done: make(chan struct{})}
	r.flights[link] = fl
	r.flightMu.Unlock()

	fl.content, fl.err = r.cfg.Fetcher.Fetch(link)
	if fl.err != nil {
		r.pullErrors.Add(1)
	} else {
		r.pulls.Add(1)
		content := fl.content
		r.store.Upsert(link, r.remainingTTL(t, now), func(old *stored, exists bool) *stored {
			upd := t
			if exists {
				upd = old.Tuple
			}
			c := upd.Clone()
			c.Content = content
			c.TS4 = now
			return &stored{Tuple: c}
		})
	}
	r.flightMu.Lock()
	delete(r.flights, link)
	r.flightMu.Unlock()
	close(fl.done)
	return fl.content, fl.err == nil
}

func (r *Registry) remainingTTL(t *tuple.Tuple, now time.Time) time.Duration {
	if t.TS3.IsZero() {
		return 0
	}
	d := t.TS3.Sub(now)
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// admitPull enforces the per-link pull throttle.
func (r *Registry) admitPull(link string, now time.Time) bool {
	if r.cfg.MinPullInterval <= 0 {
		return true
	}
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	if last, ok := r.lastPull[link]; ok && now.Sub(last) < r.cfg.MinPullInterval {
		return false
	}
	r.lastPull[link] = now
	return true
}

// Stats returns a snapshot of cumulative counters.
func (r *Registry) Stats() Stats {
	puts, refreshes, expirations := r.store.Stats()
	return Stats{
		Publishes:   puts,
		Refreshes:   refreshes,
		Expirations: expirations,
		Queries:     r.queries.Load(),
		MinQueries:  r.minQueries.Load(),
		CacheHits:   r.cacheHits.Load(),
		CacheMisses: r.cacheMisses.Load(),
		Pulls:       r.pulls.Load(),
		PullErrors:  r.pullErrors.Load(),
		Throttled:   r.throttledCnt.Load(),

		ViewHits:     r.viewHits.Load(),
		ViewMisses:   r.viewMisses.Load(),
		ViewRebuilds: r.viewRebuilds.Load(),

		PlanHits:      r.planHits.Load(),
		PlanFallbacks: r.planFallbacks.Load(),

		MemoHits:    r.memoHits.Load(),
		MemoBuilds:  r.memoBuilds.Load(),
		MemoCarries: r.memoCarries.Load(),
	}
}

// String summarizes the registry state.
func (r *Registry) String() string {
	return fmt.Sprintf("registry %s: %d live tuples", r.cfg.Name, r.Len())
}
