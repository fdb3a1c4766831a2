// Package sdk is the production client library for WSDA deployments: a
// read-through tuple/result cache invalidated *exactly* by the origin's
// change feed (S30). There is no TTL guessing — a cached entry lives until
// the feed says its key (or a key matching its filter) changed, so a
// post-unpublish read never serves the dead tuple once the feed cursor has
// passed the delete. When the feed gaps (journal truncation, primary
// restart/epoch change, transport failure) the cache drops to cold and
// re-arms at the origin's current generation, mirroring
// changefeed.Replica's resync semantics: an empty cache plus a current
// cursor is always consistent, because every subsequent fill reads through
// to the origin.
//
// The package also exposes cursor pagination (Pages/Next over
// wsda.Client.XQueryPage) so large result sets never buffer whole, and
// rides the wsda package's shared pooled transport for connection reuse.
package sdk

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/tenant"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// Metric names exported by a Client when Config.Metrics is set.
const (
	// MetricCacheHits counts reads served from the warm cache.
	MetricCacheHits = "wsda_sdk_cache_hit_total"
	// MetricCacheMisses counts reads that went through to the origin.
	MetricCacheMisses = "wsda_sdk_cache_miss_total"
	// MetricCacheInvalidations counts cache entries dropped by feed changes.
	MetricCacheInvalidations = "wsda_sdk_cache_invalidation_total"
	// MetricColdDrops counts whole-cache drops (feed gap/truncation/epoch
	// change/transport failure).
	MetricColdDrops = "wsda_sdk_cache_cold_drops_total"
	// MetricStaleness is the seconds-since-last-feed-sync gauge: how far
	// behind the origin this cache's invalidation view may be.
	MetricStaleness = "wsda_sdk_staleness_seconds"
)

// Config configures a Client.
type Config struct {
	// Origin is the base URL of the node queries and the feed tail go to —
	// a registry or a router that proxies the feed. Required.
	Origin string

	// Token authenticates against origins behind a tenant gate (sent as
	// "Authorization: Bearer ..."). Empty sends no header.
	Token string

	// HTTP overrides the transport for queries and the feed tail; nil uses
	// the wsda package's shared pooled client (sane timeouts, keep-alive
	// reuse). Its response-header timeout must exceed FeedWait.
	HTTP *http.Client

	// FeedWait is the long-poll wait the feed tail asks the origin to hold
	// each request for. Defaults to 10s; must stay below the transport's
	// response-header timeout (wsda.ResponseHeaderTimeout for the default).
	// Negative disables long-polling (plain polling at the tailer's pace).
	FeedWait time.Duration

	// MaxEntries bounds the cache (tuple entries + result entries) with
	// random-victim eviction. Defaults to 4096.
	MaxEntries int

	// Metrics, when set, exposes the wsda_sdk_* cache counters and the
	// staleness gauge. One Client per metrics registry: the families are
	// unlabeled.
	Metrics *telemetry.Metrics

	// Log, when set, receives feed-tail diagnostics (cold drops, errors).
	// Nil logs nothing.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.FeedWait == 0 {
		c.FeedWait = 10 * time.Second
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 4096
	}
	return c
}

// Stats is a snapshot of a Client's cache behavior.
type Stats struct {
	Hits          int64         // reads served from the warm cache
	Misses        int64         // reads that went through to the origin
	Invalidations int64         // entries dropped by feed changes
	ColdDrops     int64         // whole-cache drops (gap/truncation/epoch/error)
	Entries       int           // live cache entries (tuples + results)
	Warm          bool          // the feed tail is armed; hits are being served
	Cursor        uint64        // origin generation invalidations are applied through
	Staleness     time.Duration // time since the last successful feed round (0 before the first)
}

// resultEntry is one cached result set plus the information needed to
// invalidate it exactly from feed changes.
type resultEntry struct {
	filter registry.Filter
	// links is the exact membership of a MinQuery result: a delete of one
	// of these keys kills the entry. Nil for XQuery entries, whose item
	// provenance is unknown — deletes fall back to the filter's link
	// prefix, conservatively.
	links  map[string]struct{}
	tuples []*tuple.Tuple // MinQuery results (shared, read-only)
	seq    xq.Sequence    // XQuery results (shared, read-only)
}

// invalidatedBy reports whether feed change ch can affect this result set.
// Upserts match against the entry's filter (the new state may have joined
// the set) or its membership (old state may have left it); deletes match
// membership when known, the filter's link prefix otherwise.
func (e *resultEntry) invalidatedBy(ch registry.Change) bool {
	if e.links != nil {
		if _, ok := e.links[ch.Key]; ok {
			return true
		}
	}
	if ch.Tuple != nil {
		return e.filter.Matches(ch.Tuple)
	}
	if e.links != nil {
		return false // exact membership known, and the deleted key is not in it
	}
	return strings.HasPrefix(ch.Key, e.filter.LinkPrefix)
}

// Client is a caching WSDA client: reads are served from an in-process
// cache kept exact by tailing the origin's change feed. Create with New,
// arm with Start, stop with Close. Safe for concurrent use.
//
// Cached values (tuples, result slices) are shared between callers and the
// cache: treat them as read-only.
type Client struct {
	cfg  Config
	wc   *wsda.Client
	tail *changefeed.Tailer // owns the cursor invalidations are applied through

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	coldDrops     atomic.Int64

	mu       sync.RWMutex
	warm     bool                     // feed armed; cache may serve and fill
	resetSeq uint64                   // bumped on every cold drop; stale fills compare it
	version  uint64                   // bumped per feed change; orders fills against invalidations
	inflight int                      // origin fills in progress (prunes inval when it drains)
	inval    map[string]uint64        // key -> version at its last invalidation
	fills    map[string]chan struct{} // key -> in-flight leader fill (coalescing)
	tuples   map[string]*tuple.Tuple
	results  map[string]*resultEntry

	stop   context.CancelFunc
	stopWG sync.WaitGroup
}

// New returns a caching client for cfg. The cache stays cold (every read
// passes through) until Start arms the feed tail.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Origin == "" {
		return nil, fmt.Errorf("sdk: Config.Origin is required")
	}
	wc := wsda.NewClient(cfg.Origin)
	wc.Token = cfg.Token
	if cfg.HTTP != nil {
		wc.HTTP = cfg.HTTP
	}
	c := &Client{
		cfg:     cfg,
		wc:      wc,
		inval:   make(map[string]uint64),
		fills:   make(map[string]chan struct{}),
		tuples:  make(map[string]*tuple.Tuple),
		results: make(map[string]*resultEntry),
	}
	c.tail = changefeed.NewTailer(cacheFeed{c}, wc.BaseURL, tenant.WithToken(wc.HTTP, cfg.Token), cfg.FeedWait)
	if m := cfg.Metrics; m != nil {
		m.CounterFunc(MetricCacheHits,
			"SDK reads served from the feed-invalidated cache.", c.hits.Load)
		m.CounterFunc(MetricCacheMisses,
			"SDK reads that went through to the origin.", c.misses.Load)
		m.CounterFunc(MetricCacheInvalidations,
			"SDK cache entries dropped by change-feed invalidations.", c.invalidations.Load)
		m.CounterFunc(MetricColdDrops,
			"SDK whole-cache drops: feed gap, journal truncation, origin epoch change, or feed transport failure.",
			c.coldDrops.Load)
		m.GaugeFunc(MetricStaleness,
			"Seconds since the SDK cache last completed a feed round — the bound on how old its invalidation view is.",
			func() float64 { return c.tail.Staleness().Seconds() })
	}
	return c, nil
}

// Origin returns the underlying uncached wsda.Client — for writes
// (publish/unpublish) and anything else that must bypass the cache.
func (c *Client) Origin() *wsda.Client { return c.wc }

// Start launches the feed tail that arms and maintains the cache. It
// returns immediately; until the first feed round lands, reads pass
// through to the origin uncached. Call Close to stop.
func (c *Client) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	c.stopWG.Add(1)
	go func() {
		defer c.stopWG.Done()
		_ = c.tail.Run(ctx) // returns only ctx's error
	}()
}

// Close stops the feed tail and drops the cache cold. The client remains
// usable as a pass-through (uncached) client afterwards. A clean Close is
// not a feed failure: it neither warns nor counts toward the cold-drop
// metric.
func (c *Client) Close() {
	if c.stop != nil {
		c.stop()
		c.stopWG.Wait()
		c.stop = nil
	}
	c.mu.Lock()
	c.clearLocked()
	c.mu.Unlock()
}

// Stats returns a snapshot of cache behavior.
func (c *Client) Stats() Stats {
	c.mu.RLock()
	entries := len(c.tuples) + len(c.results)
	warm := c.warm
	c.mu.RUnlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		ColdDrops:     c.coldDrops.Load(),
		Entries:       entries,
		Warm:          warm,
		Cursor:        c.tail.Cursor(),
		Staleness:     c.tail.Staleness(),
	}
}

// Warm reports whether the feed tail is armed: cached entries may be
// served and new fills are cached.
func (c *Client) Warm() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.warm
}

// Cursor returns the origin generation invalidations have been applied
// through. Once Cursor() >= the generation of a delete, a read can no
// longer serve the deleted tuple.
func (c *Client) Cursor() uint64 { return c.tail.Cursor() }

// WaitCursor blocks until the cache is warm with its cursor at or past
// gen, or ctx is done. It is how tests (and operators' probes) phrase "the
// feed has passed this write".
func (c *Client) WaitCursor(ctx context.Context, gen uint64) error {
	for {
		if c.Warm() && c.Cursor() >= gen {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ---- read paths -------------------------------------------------------

// Lookup resolves one tuple by its exact link, through the cache. The
// returned tuple is shared with the cache: read-only. Negative results are
// not cached: every lookup of an absent link goes to the origin.
func (c *Client) Lookup(link string) (*tuple.Tuple, bool, error) {
	hit := func() (*tuple.Tuple, bool) {
		t, ok := c.tuples[link]
		return t, ok
	}
	if t, ok := probe(c, hit); ok {
		return t, true, nil
	}
	fillCh := lead(c, link, hit)
	defer c.releaseFill(link, fillCh)
	if t, ok := probe(c, hit); ok {
		// The leader we queued behind resolved our link too.
		return t, true, nil
	}
	c.misses.Add(1)
	v0, r0, cacheable := c.fillStart()
	if cacheable {
		defer c.fillEnd()
	}
	ts, err := c.wc.MinQuery(registry.Filter{LinkPrefix: link})
	if err != nil {
		return nil, false, err
	}
	for _, t := range ts {
		if t.Link == link {
			if cacheable {
				c.install(v0, r0, func() {
					c.tuples[link] = t
				})
			}
			return t, true, nil
		}
	}
	return nil, false, nil
}

// MinQuery runs the minimal query primitive through the result cache. The
// returned slice is shared with the cache: read-only.
func (c *Client) MinQuery(f registry.Filter) ([]*tuple.Tuple, error) {
	key := "m\x00" + f.Type + "\x00" + f.Context + "\x00" + f.LinkPrefix
	hit := func() ([]*tuple.Tuple, bool) {
		if e, ok := c.results[key]; ok {
			return e.tuples, true
		}
		return nil, false
	}
	if ts, ok := probe(c, hit); ok {
		return ts, nil
	}
	fillCh := lead(c, key, hit)
	defer c.releaseFill(key, fillCh)
	if ts, ok := probe(c, hit); ok {
		return ts, nil
	}
	c.misses.Add(1)
	v0, r0, cacheable := c.fillStart()
	if cacheable {
		defer c.fillEnd()
	}
	ts, err := c.wc.MinQuery(f)
	if err != nil {
		return nil, err
	}
	if cacheable {
		links := make(map[string]struct{}, len(ts))
		for _, t := range ts {
			links[t.Link] = struct{}{}
		}
		c.install(v0, r0, func() {
			c.results[key] = &resultEntry{filter: f, links: links, tuples: ts}
		})
	}
	return ts, nil
}

// XQuery runs the powerful query primitive through the result cache when
// the options allow it (no Emit, Vars or freshness demands — those force a
// pass-through). The returned sequence is shared with the cache:
// read-only.
func (c *Client) XQuery(query string, opts registry.QueryOptions) (xq.Sequence, error) {
	if opts.Emit != nil || opts.Vars != nil ||
		opts.Freshness.MaxAge > 0 || opts.Freshness.PullMissing {
		c.misses.Add(1)
		return c.wc.XQuery(query, opts)
	}
	f := opts.Filter
	key := "x\x00" + f.Type + "\x00" + f.Context + "\x00" + f.LinkPrefix + "\x00" + query
	hit := func() (xq.Sequence, bool) {
		if e, ok := c.results[key]; ok {
			return e.seq, true
		}
		return nil, false
	}
	if seq, ok := probe(c, hit); ok {
		return seq, nil
	}
	fillCh := lead(c, key, hit)
	defer c.releaseFill(key, fillCh)
	if seq, ok := probe(c, hit); ok {
		return seq, nil
	}
	c.misses.Add(1)
	v0, r0, cacheable := c.fillStart()
	if cacheable {
		defer c.fillEnd()
	}
	seq, err := c.wc.XQuery(query, opts)
	if err != nil {
		return nil, err
	}
	if cacheable {
		c.install(v0, r0, func() {
			c.results[key] = &resultEntry{filter: f, seq: seq}
		})
	}
	return seq, nil
}

// ---- fill coalescing ---------------------------------------------------
//
// A popular key on a cold cache draws a thundering herd: every concurrent
// reader misses and hammers the origin with identical fills — exactly the
// load multiplication the cache exists to prevent. Fills are therefore
// coalesced per key: the first misser leads (one origin round-trip),
// everyone else queues on its completion and re-checks the cache. A
// follower that still misses after the leader finishes (failed fill,
// vetoed install, negative lookup) takes leadership itself, so progress
// never depends on an entry actually appearing.

// probe is the fast path: a warm-cache read of hit under RLock, counting a
// cache hit when it lands.
func probe[T any](c *Client, hit func() (T, bool)) (T, bool) {
	c.mu.RLock()
	var v T
	ok := false
	if c.warm {
		v, ok = hit()
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// lead queues on any in-flight fill of key until this caller either is
// satisfied by a finished leader's fill (returns nil; the caller's re-probe
// will land the hit) or acquires leadership itself (returns the channel to
// pass to releaseFill). On a cold cache fills are uncoordinated — and
// uncached — so no leadership is taken (nil).
func lead[T any](c *Client, key string, hit func() (T, bool)) chan struct{} {
	for {
		c.mu.Lock()
		if !c.warm {
			c.mu.Unlock()
			return nil
		}
		ch, busy := c.fills[key]
		if !busy {
			ch = make(chan struct{})
			c.fills[key] = ch
			c.mu.Unlock()
			return ch
		}
		c.mu.Unlock()
		<-ch
		// The leader finished. If its fill satisfied us, stop queueing
		// (without counting — the caller's re-probe does); otherwise loop
		// and contend for leadership.
		c.mu.RLock()
		satisfied := false
		if c.warm {
			_, satisfied = hit()
		}
		c.mu.RUnlock()
		if satisfied {
			return nil
		}
	}
}

// releaseFill ends a leadership acquired by lead, waking queued followers.
// A nil ch (no leadership taken) is a no-op.
func (c *Client) releaseFill(key string, ch chan struct{}) {
	if ch == nil {
		return
	}
	c.mu.Lock()
	if c.fills[key] == ch {
		delete(c.fills, key)
	}
	c.mu.Unlock()
	close(ch)
}

// ---- fill/invalidation ordering ---------------------------------------
//
// The race this machinery kills: a read misses, the origin answers with
// pre-change state, the feed applies the change (invalidating the key),
// and only then does the fill install — resurrecting state the feed
// already declared dead, with nothing left to invalidate it. Every fill
// therefore records the global change version (v0) and cold-drop sequence
// (r0) before its origin request; install is skipped when the key was
// invalidated past v0 or the cache dropped cold since r0. The inval map
// only needs entries while fills are in flight, so it is cleared when the
// last concurrent fill completes.

// fillStart opens a fill: snapshots the version/reset counters and marks
// the fill in flight. cacheable=false (cold cache) means the read should
// not attempt to install at all.
func (c *Client) fillStart() (v0, r0 uint64, cacheable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.warm {
		return 0, 0, false
	}
	c.inflight++
	return c.version, c.resetSeq, true
}

// fillEnd closes a fill opened by fillStart, pruning the invalidation
// journal once no fills are left to consult it.
func (c *Client) fillEnd() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if c.inflight == 0 && len(c.inval) > 0 {
		c.inval = make(map[string]uint64)
	}
}

// install commits a fill's result via put unless the cache was reset or
// any key was invalidated after the fill started. Invalidations are
// tracked per key, but a fill's result set may depend on keys beyond its
// own (a MinQuery's membership), so any invalidation past v0 vetoes the
// install — cheap, conservative, and only in the fill/invalidate race
// window.
func (c *Client) install(v0, r0 uint64, put func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.warm || c.resetSeq != r0 || c.version > v0 {
		return
	}
	if len(c.tuples)+len(c.results) >= c.cfg.MaxEntries {
		c.evictLocked()
	}
	put()
}

// evictLocked drops one random victim (Go's randomized map iteration picks
// it), preferring result entries — they are bigger and cheaper to refill.
func (c *Client) evictLocked() {
	for k := range c.results {
		delete(c.results, k)
		return
	}
	for k := range c.tuples {
		delete(c.tuples, k)
		return
	}
}

// applyChanges folds one feed page's changes into the cache: drop the
// changed keys' tuple entries and every result set the change can affect.
func (c *Client) applyChanges(changes []registry.Change) {
	if len(changes) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := int64(0)
	for _, ch := range changes {
		c.version++
		if c.inflight > 0 {
			c.inval[ch.Key] = c.version
		}
		if _, ok := c.tuples[ch.Key]; ok {
			delete(c.tuples, ch.Key)
			dropped++
		}
		for k, e := range c.results {
			if e.invalidatedBy(ch) {
				delete(c.results, k)
				dropped++
			}
		}
	}
	c.invalidations.Add(dropped)
}

// dropCold clears the whole cache and disarms serving until the feed
// re-arms — the gap/truncation/epoch-change/error path.
func (c *Client) dropCold(reason string) {
	c.mu.Lock()
	wasWarm := c.warm
	c.clearLocked()
	c.mu.Unlock()
	if wasWarm {
		c.coldDrops.Add(1)
		if c.cfg.Log != nil {
			c.cfg.Log.Warn("sdk cache dropped cold", "reason", reason)
		}
	}
}

// clearLocked disarms serving and empties the cache; callers hold mu and
// own any cold-drop accounting.
func (c *Client) clearLocked() {
	c.warm = false
	c.resetSeq++
	c.tuples = make(map[string]*tuple.Tuple)
	c.results = make(map[string]*resultEntry)
	c.inval = make(map[string]uint64)
}

// arm (re)arms the empty cache: from here on fills are cached and feed
// changes invalidate them.
func (c *Client) arm() {
	c.mu.Lock()
	c.warm = true
	c.resetSeq++
	c.mu.Unlock()
}

// cacheFeed is the Client as its feed tailer sees it. Any irregularity —
// transport failure, origin epoch change, journal truncation, a cursor
// from the future — drops the cache cold and re-arms; an empty cache plus
// a current cursor is always consistent, because every subsequent fill
// reads through to the origin. The Consumer methods stay off the Client's
// own method set.
type cacheFeed struct{ c *Client }

// Apply folds one contiguous page into the cache — or, while a failed
// round has left the cache cold, re-arms it at the page's To: nothing is
// cached, so there is nothing the page's changes could invalidate.
func (f cacheFeed) Apply(p changefeed.Page) {
	if f.c.Warm() {
		f.c.applyChanges(p.Changes)
	} else {
		f.c.arm()
	}
}

// Resync clears the cache and resumes at gap.To. Unlike a Replica the
// cache carries no full-state obligation, so no snapshot is ever fetched:
// even a truncated page reports the origin's current generation in To,
// which is exactly where a fresh empty cache belongs.
func (f cacheFeed) Resync(_ context.Context, gap changefeed.Page) (string, uint64, error) {
	f.c.dropCold(fmt.Sprintf("feed resync: epoch=%q truncated=%v to=%d cursor=%d",
		gap.Epoch, gap.Truncated, gap.To, f.c.Cursor()))
	f.c.arm()
	return gap.Epoch, gap.To, nil
}

// Failed drops the cache cold: while the feed is down nothing invalidates
// it.
func (f cacheFeed) Failed(err error) {
	if f.c.Warm() {
		f.c.dropCold(fmt.Sprintf("feed error: %v", err))
	} else if f.c.cfg.Log != nil {
		f.c.cfg.Log.Warn("sdk feed round failed", "origin", f.c.cfg.Origin, "err", err)
	}
}
