package sdk

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// origin is a full WSDA node (query binding + change feed) with request
// accounting, so tests can assert which reads hit the wire.
type origin struct {
	srv      *httptest.Server
	reg      *registry.Registry
	node     *wsda.LocalNode
	requests atomic.Int64 // query-path requests (feed excluded)
}

func newOrigin(t *testing.T) *origin {
	t.Helper()
	reg := registry.New(registry.Config{
		Name: "origin", DefaultTTL: time.Hour, MinTTL: time.Millisecond,
		JournalCap: 1024,
	})
	o := &origin{reg: reg, node: &wsda.LocalNode{
		Desc:     wsda.NewService("origin").Build(),
		Registry: reg,
	}}
	mux := http.NewServeMux()
	handler := wsda.Handler(o.node)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		o.requests.Add(1)
		handler.ServeHTTP(w, r)
	})
	changefeed.NewServer(reg).Mount(mux) // more specific: feed bypasses the counter
	o.srv = httptest.NewServer(mux)
	t.Cleanup(o.srv.Close)
	return o
}

func (o *origin) publish(t *testing.T, name string) string {
	t.Helper()
	link := "http://sdk.example/" + name
	tp := &tuple.Tuple{
		Link: link, Type: tuple.TypeService,
		Content: xmldoc.MustParse(fmt.Sprintf(`<service name=%q/>`, name)).DocumentElement().Clone(),
	}
	if _, err := o.node.Publish(tp, time.Hour); err != nil {
		t.Fatal(err)
	}
	return link
}

func (o *origin) unpublish(t *testing.T, link string) {
	t.Helper()
	if err := o.node.Unpublish(link); err != nil {
		t.Fatal(err)
	}
}

// newWarmClient returns a started client that has finished arming.
func newWarmClient(t *testing.T, o *origin) *Client {
	t.Helper()
	c, err := New(Config{Origin: o.srv.URL, FeedWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitCursor(ctx, o.reg.Gen()); err != nil {
		t.Fatalf("cache never warmed: %v", err)
	}
	return c
}

// waitPast blocks until the client's cursor passes the origin's current
// generation — "the feed has seen everything written so far".
func waitPast(t *testing.T, c *Client, o *origin) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitCursor(ctx, o.reg.Gen()); err != nil {
		t.Fatalf("cursor never reached gen %d: %v", o.reg.Gen(), err)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	o := newOrigin(t)
	link := o.publish(t, "alpha")
	c := newWarmClient(t, o)

	before := o.requests.Load()
	tp, ok, err := c.Lookup(link)
	if err != nil || !ok {
		t.Fatalf("first lookup: ok=%v err=%v", ok, err)
	}
	if o.requests.Load() != before+1 {
		t.Fatalf("first lookup made %d origin requests, want 1", o.requests.Load()-before)
	}
	tp2, ok, err := c.Lookup(link)
	if err != nil || !ok {
		t.Fatalf("second lookup: ok=%v err=%v", ok, err)
	}
	if o.requests.Load() != before+1 {
		t.Error("second lookup hit the origin; want cache hit")
	}
	if tp2 != tp {
		t.Error("cache hit returned a different tuple pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

// The ordering table: every (fill kind, change kind) pair must converge to
// the origin's state once the feed cursor passes the change — publish
// invalidates stale result sets, unpublish kills dead tuples, and the
// subsequent read refills from the origin. Run under -race this also
// exercises the fill/invalidation guard.
func TestInvalidationOrdering(t *testing.T) {
	filter := registry.Filter{Type: tuple.TypeService}
	cases := []struct {
		name string
		// read performs the cacheable read under test and returns how many
		// live results it sees.
		read func(c *Client) (int, error)
	}{
		{"minquery", func(c *Client) (int, error) {
			ts, err := c.MinQuery(filter)
			return len(ts), err
		}},
		{"xquery", func(c *Client) (int, error) {
			seq, err := c.XQuery(`count(//service)`, registry.QueryOptions{Filter: filter})
			if err != nil || len(seq) == 0 {
				return 0, err
			}
			return int(xq.NumberValue(seq[0])), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOrigin(t)
			o.publish(t, "seed")
			c := newWarmClient(t, o)

			if n, err := tc.read(c); err != nil || n != 1 {
				t.Fatalf("cold read: n=%d err=%v", n, err)
			}
			if n, _ := tc.read(c); n != 1 {
				t.Fatalf("warm read diverged: %d", n)
			}
			if st := c.Stats(); st.Hits == 0 {
				t.Fatal("warm read did not hit the cache")
			}

			// publish -> invalidate -> refill
			link := o.publish(t, "second")
			waitPast(t, c, o)
			if n, err := tc.read(c); err != nil || n != 2 {
				t.Fatalf("read after publish: n=%d err=%v (stale result survived the feed)", n, err)
			}

			// unpublish -> invalidate -> refill
			o.unpublish(t, link)
			waitPast(t, c, o)
			if n, err := tc.read(c); err != nil || n != 1 {
				t.Fatalf("read after unpublish: n=%d err=%v (dead tuple served)", n, err)
			}
			if st := c.Stats(); st.Invalidations == 0 {
				t.Error("no invalidations counted across publish+unpublish")
			}
		})
	}
}

// After the feed cursor passes an unpublish, Lookup must never serve the
// dead tuple — the headline guarantee — while unrelated cached entries
// survive untouched (exact invalidation, not a flush).
func TestUnpublishExactInvalidation(t *testing.T) {
	o := newOrigin(t)
	dead := o.publish(t, "dead")
	alive := o.publish(t, "alive")
	c := newWarmClient(t, o)

	for _, l := range []string{dead, alive} {
		if _, ok, err := c.Lookup(l); err != nil || !ok {
			t.Fatalf("prefill %s: ok=%v err=%v", l, ok, err)
		}
	}
	before := o.requests.Load()
	o.unpublish(t, dead)
	waitPast(t, c, o)

	if _, ok, err := c.Lookup(dead); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("dead tuple served after the feed cursor passed the delete")
	}
	// The unrelated entry must still be a hit: no origin round-trip.
	reqAfterDead := o.requests.Load()
	if _, ok, err := c.Lookup(alive); err != nil || !ok {
		t.Fatalf("alive lookup: ok=%v err=%v", ok, err)
	}
	if o.requests.Load() != reqAfterDead {
		t.Error("unpublish of one key evicted an unrelated entry (origin was re-read)")
	}
	_ = before
}

// A herd of concurrent misses on one cold key costs the origin one fill:
// the first misser leads, the rest queue on it and read what it
// installed. This is what keeps the origin's load per (key, edge) flat as
// clients grow.
func TestConcurrentMissesCoalesce(t *testing.T) {
	o := newOrigin(t)
	link := o.publish(t, "herd")
	c := newWarmClient(t, o)

	const readers = 64
	before := o.requests.Load()
	start := make(chan struct{})
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			<-start
			_, ok, err := c.Lookup(link)
			if err == nil && !ok {
				err = fmt.Errorf("lookup of %s missed", link)
			}
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := o.requests.Load() - before; got != 1 {
		t.Errorf("%d concurrent lookups of one cold key made %d origin requests, want 1", readers, got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != readers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, readers-1)
	}
}

// A MinQuery result set must be invalidated when a NEW tuple matching its
// filter appears (membership can't know it yet — the filter match must).
func TestResultSetInvalidatedByNewMatch(t *testing.T) {
	o := newOrigin(t)
	o.publish(t, "one")
	c := newWarmClient(t, o)

	f := registry.Filter{Type: tuple.TypeService}
	ts, err := c.MinQuery(f)
	if err != nil || len(ts) != 1 {
		t.Fatalf("seed minquery: %d, %v", len(ts), err)
	}
	o.publish(t, "two")
	waitPast(t, c, o)
	ts, err = c.MinQuery(f)
	if err != nil || len(ts) != 2 {
		t.Fatalf("minquery after new match: %d, %v (entry not invalidated)", len(ts), err)
	}
}

// An origin restart (new epoch, reset generation counter) must drop the
// cache cold and re-arm against the new incarnation.
func TestEpochChangeDropsCold(t *testing.T) {
	o1 := newOrigin(t)
	link := o1.publish(t, "x")

	// A stable front URL whose backend can be swapped, like a failover VIP.
	var backend atomic.Pointer[httptest.Server]
	backend.Store(o1.srv)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r2 := r.Clone(r.Context())
		r2.RequestURI = ""
		u := *r.URL
		u.Scheme = "http"
		u.Host = backend.Load().Listener.Addr().String()
		r2.URL = &u
		resp, err := http.DefaultTransport.RoundTrip(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
			if err != nil {
				return
			}
		}
	}))
	defer front.Close()

	c, err := New(Config{Origin: front.URL, FeedWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitCursor(ctx, o1.reg.Gen()); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Lookup(link); !ok {
		t.Fatal("prefill failed")
	}

	// Swap in a fresh incarnation that never heard of the tuple.
	o2 := newOrigin(t)
	backend.Store(o2.srv)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.Stats().ColdDrops > 0 && c.Warm() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cold drop after epoch change: %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok, err := c.Lookup(link); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("tuple from the old incarnation served after the epoch change")
	}
}

// Concurrency hammer: readers loop Lookup/MinQuery while a writer
// publishes and unpublishes. Run under -race; afterwards the cache must
// converge to the origin's exact final state.
func TestConcurrentReadsDuringChurn(t *testing.T) {
	o := newOrigin(t)
	links := make([]string, 8)
	for i := range links {
		links[i] = o.publish(t, fmt.Sprintf("churn%d", i))
	}
	c := newWarmClient(t, o)

	stop := make(chan struct{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%3 == 0 {
					_, _ = c.MinQuery(registry.Filter{Type: tuple.TypeService})
				} else {
					_, _, _ = c.Lookup(links[(g+i)%len(links)])
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		o.unpublish(t, links[round%len(links)])
		o.publish(t, fmt.Sprintf("churn%d", round%len(links)))
	}
	final := links[3]
	o.unpublish(t, final)
	close(stop)
	for g := 0; g < 4; g++ {
		<-done
	}
	waitPast(t, c, o)

	if _, ok, err := c.Lookup(final); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("finally-unpublished tuple still served after churn settled")
	}
	ts, err := c.MinQuery(registry.Filter{Type: tuple.TypeService})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(o.reg.MinQuery(registry.Filter{Type: tuple.TypeService})); len(ts) != want {
		t.Errorf("post-churn minquery = %d tuples, origin has %d", len(ts), want)
	}
}

// The Pager must walk a large result set page by page through the SDK,
// surviving a mid-pagination republish of an existing link.
func TestPagerRoundTrip(t *testing.T) {
	o := newOrigin(t)
	for i := 0; i < 10; i++ {
		o.publish(t, fmt.Sprintf("p%02d", i))
	}
	c, err := New(Config{Origin: o.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	p := c.Pages(`//service/@name`, registry.QueryOptions{}, 4)
	var items []string
	pages := 0
	for p.Next() {
		pages++
		if pages == 1 {
			// Mid-pagination republish of a link already delivered: the
			// positional cursor must keep the walk stable.
			o.publish(t, "p01")
		}
		for _, it := range p.Items() {
			items = append(items, xq.Serialize(xq.Sequence{it}))
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if pages != 3 {
		t.Errorf("pages = %d, want 3 (4+4+2)", pages)
	}
	if len(items) != 10 {
		t.Fatalf("items = %d, want 10", len(items))
	}
	seen := map[string]bool{}
	for _, s := range items {
		if seen[s] {
			t.Errorf("duplicate across page boundary: %s", s)
		}
		seen[s] = true
	}
}

// A pager error must surface through Err and stop iteration.
func TestPagerSurfacesErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := New(Config{Origin: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pages(`//x`, registry.QueryOptions{}, 2)
	if p.Next() {
		t.Fatal("Next succeeded against an always-500 origin")
	}
	if p.Err() == nil {
		t.Fatal("Err nil after failed page")
	}
}

// Reads with options the cache cannot represent (Emit, freshness bounds)
// must bypass it entirely.
func TestUncacheableOptionsBypass(t *testing.T) {
	o := newOrigin(t)
	o.publish(t, "a")
	c := newWarmClient(t, o)

	opts := registry.QueryOptions{Freshness: registry.Freshness{MaxAge: time.Second}}
	before := o.requests.Load()
	for i := 0; i < 2; i++ {
		if _, err := c.XQuery(`count(//service)`, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.requests.Load() - before; got != 2 {
		t.Errorf("freshness-bounded reads made %d origin requests, want 2 (no caching)", got)
	}
}

// A cold (never started) client is a pure pass-through: correct answers,
// no hits, no stale entries.
func TestColdClientPassesThrough(t *testing.T) {
	o := newOrigin(t)
	link := o.publish(t, "cold")
	c, err := New(Config{Origin: o.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := c.Lookup(link); err != nil || !ok {
			t.Fatalf("cold lookup: ok=%v err=%v", ok, err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("cold stats = %+v, want 0 hits 2 misses", st)
	}
}

// MaxEntries must bound the cache: filling past the cap evicts rather than
// grows.
func TestMaxEntriesBoundsCache(t *testing.T) {
	o := newOrigin(t)
	links := make([]string, 12)
	for i := range links {
		links[i] = o.publish(t, fmt.Sprintf("cap%02d", i))
	}
	c, err := New(Config{Origin: o.srv.URL, MaxEntries: 4, FeedWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitCursor(ctx, o.reg.Gen()); err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		if _, ok, err := c.Lookup(l); err != nil || !ok {
			t.Fatalf("lookup %s: ok=%v err=%v", l, ok, err)
		}
	}
	if got := c.Stats().Entries; got > 4 {
		t.Errorf("entries = %d, want <= MaxEntries 4", got)
	}
}
