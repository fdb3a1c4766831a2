package registry

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xq"
)

func countTuples(t *testing.T, r *Registry, opts QueryOptions) int {
	t.Helper()
	seq, err := r.Query(`count(/tupleset/tuple)`, opts)
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	return int(xq.NumberValue(seq[0]))
}

func TestViewCacheHit(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	r.Publish(svcTuple("a", "cern.ch", 0.1), 0)
	r.Publish(svcTuple("b", "cern.ch", 0.2), 0)

	if got := countTuples(t, r, QueryOptions{}); got != 2 {
		t.Fatalf("count = %d", got)
	}
	st := r.Stats()
	if st.ViewMisses != 1 || st.ViewRebuilds != 1 {
		t.Fatalf("first query: misses=%d rebuilds=%d, want 1/1", st.ViewMisses, st.ViewRebuilds)
	}
	for i := 0; i < 5; i++ {
		if got := countTuples(t, r, QueryOptions{}); got != 2 {
			t.Fatalf("count = %d", got)
		}
	}
	st = r.Stats()
	if st.ViewHits != 5 {
		t.Errorf("hits = %d, want 5", st.ViewHits)
	}
	if st.ViewRebuilds != 1 {
		t.Errorf("rebuilds = %d: unchanged store must not rebuild", st.ViewRebuilds)
	}
}

func TestViewInvalidationOnPublishAndUnpublish(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	r.Publish(svcTuple("a", "cern.ch", 0.1), 0)
	if got := countTuples(t, r, QueryOptions{}); got != 1 {
		t.Fatalf("count = %d", got)
	}
	ts := svcTuple("b", "cern.ch", 0.2)
	r.Publish(ts, 0)
	if got := countTuples(t, r, QueryOptions{}); got != 2 {
		t.Fatalf("count after publish = %d", got)
	}
	r.Unpublish(ts.Link)
	if got := countTuples(t, r, QueryOptions{}); got != 1 {
		t.Fatalf("count after unpublish = %d", got)
	}
	seq, err := r.Query(fmt.Sprintf(`count(/tupleset/tuple[@link=%q])`, ts.Link), QueryOptions{})
	if err != nil || xq.StringValue(seq[0]) != "0" {
		t.Errorf("unpublished tuple still visible: %v %v", seq, err)
	}
}

func TestViewPassiveExpiry(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	r.Publish(svcTuple("a", "cern.ch", 0.1), time.Hour)
	r.Publish(svcTuple("b", "cern.ch", 0.2), 30*time.Second)
	if got := countTuples(t, r, QueryOptions{}); got != 2 {
		t.Fatalf("count = %d", got)
	}
	// "b" crosses its deadline with no Sweep and no journal record; the
	// cached view must still exclude it.
	clk.Advance(time.Minute)
	if got := countTuples(t, r, QueryOptions{}); got != 1 {
		t.Fatalf("count after passive expiry = %d, want 1", got)
	}
}

func TestViewHeartbeatRefresh(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	ts := svcTuple("a", "cern.ch", 0.1)
	r.Publish(ts, 0)
	seq, err := r.Query(`string(/tupleset/tuple/@ts2)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := xq.StringValue(seq[0])
	clk.Advance(10 * time.Second)
	r.Publish(ts, 0) // heartbeat: same link, refreshed timestamps
	seq, err = r.Query(`string(/tupleset/tuple/@ts2)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second := xq.StringValue(seq[0]); second == first {
		t.Errorf("ts2 not re-rendered after refresh: %s", second)
	}
}

func TestViewDocumentOrderAfterIncrementalEdits(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	// Publish out of link order, interleaved with queries so every
	// mutation is applied to the cached view incrementally.
	names := []string{"m", "c", "x", "a", "t"}
	for _, n := range names {
		r.Publish(svcTuple(n, "cern.ch", 0.1), 0)
		countTuples(t, r, QueryOptions{})
	}
	r.Unpublish("http://cern.ch/m")
	seq, err := r.Query(`for $t in /tupleset/tuple return string($t/@link)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var links []string
	for _, it := range seq {
		links = append(links, xq.StringValue(it))
	}
	want := "http://cern.ch/a,http://cern.ch/c,http://cern.ch/t,http://cern.ch/x"
	if strings.Join(links, ",") != want {
		t.Errorf("links = %v, want sorted %s", links, want)
	}
}

func TestViewPerFilterIsolation(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	r.Publish(svcTuple("a", "cern.ch", 0.1), 0)
	nodeTuple := &tuple.Tuple{Link: "http://cern.ch/node", Type: tuple.TypeNode, Context: "peer"}
	r.Publish(nodeTuple, 0)

	if got := countTuples(t, r, QueryOptions{Filter: Filter{Type: tuple.TypeService}}); got != 1 {
		t.Errorf("service filter = %d", got)
	}
	if got := countTuples(t, r, QueryOptions{Filter: Filter{Context: "peer"}}); got != 1 {
		t.Errorf("context filter = %d", got)
	}
	if got := countTuples(t, r, QueryOptions{}); got != 2 {
		t.Errorf("unfiltered = %d", got)
	}
	// A mutation that only affects one filter's membership is reflected in
	// every cached view.
	r.Unpublish(nodeTuple.Link)
	if got := countTuples(t, r, QueryOptions{Filter: Filter{Context: "peer"}}); got != 0 {
		t.Errorf("context filter after unpublish = %d", got)
	}
	if got := countTuples(t, r, QueryOptions{}); got != 1 {
		t.Errorf("unfiltered after unpublish = %d", got)
	}
}

// TestViewRepublishAfterUnpublish guards against revision collision across
// incarnations of a link: unpublish + republish with different content
// between two view syncs must re-render the tuple's subtree, not be
// mistaken for a deadline touch of the cached (stale) rendering.
func TestViewRepublishAfterUnpublish(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	r.Publish(svcTuple("a", "cern.ch", 0.1), 0)
	if got := countTuples(t, r, QueryOptions{}); got != 1 { // prime the view
		t.Fatalf("count = %d", got)
	}
	// Both mutations land before the next query syncs the view.
	r.Unpublish("http://cern.ch/a")
	r.Publish(svcTuple("a", "cern.ch", 0.9), 0)
	seq, err := r.Query(`string(/tupleset/tuple/content/service/load)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := xq.StringValue(seq[0]); got != "0.90" {
		t.Errorf("view served stale incarnation: load = %s, want 0.90", got)
	}
}

// TestQueryResultsImmutable asserts what results aliasing a tuple set rely
// on: sequences returned by planned and interpreted queries serialize
// identically after later publishes, unpublishes, expiry and eviction of
// the tuple set they came from.
func TestQueryResultsImmutable(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	for _, n := range []string{"a", "b", "c"} {
		r.Publish(svcTuple(n, "cern.ch", 0.1), time.Minute)
	}
	held := map[string]xq.Sequence{}
	for _, src := range []string{
		`/tupleset`,          // interpreted: the root itself
		`/tupleset/tuple[2]`, // interpreted: positional
		`for $t in /tupleset/tuple return $t/@link`, // interpreted: FLWOR
		`/tupleset/tuple[@type="service"]`,          // planned: index(type)
		`/tupleset/tuple/content/service`,           // planned: scan + projection
	} {
		seq, err := r.Query(src, QueryOptions{})
		if err != nil || len(seq) == 0 {
			t.Fatalf("%s: %v %v", src, seq, err)
		}
		held[src] = seq
	}
	before := map[string]string{}
	for src, seq := range held {
		before[src] = xq.Serialize(seq)
	}

	r.Publish(svcTuple("b", "cern.ch", 0.9), time.Minute) // new revision of a held tuple
	r.Publish(svcTuple("d", "cern.ch", 0.4), time.Hour)
	r.Unpublish("http://cern.ch/a")
	countTuples(t, r, QueryOptions{})
	clk.Advance(2 * time.Minute) // b and c expire
	r.Sweep()
	if got := countTuples(t, r, QueryOptions{}); got != 1 {
		t.Fatalf("count after expiry = %d, want 1", got)
	}
	for i := 0; i < 2*maxCachedViews; i++ { // evict the unfiltered tuple set
		countTuples(t, r, QueryOptions{Filter: Filter{LinkPrefix: fmt.Sprintf("http://one-off%d.net/", i)}})
	}

	for src, seq := range held {
		if after := xq.Serialize(seq); after != before[src] {
			t.Errorf("%s: held result changed:\nbefore: %s\nafter:  %s", src, before[src], after)
		}
	}
}

// tupleSetCorpus adds, to the plan corpus, the queries that exercise
// what the evaluator resolves through its context on a tuple set: parents,
// ancestors, siblings and roots of shared <tuple> elements, document order
// across them, and constructed nodes mixed in.
var tupleSetCorpus = append([]string{
	`/tupleset/tuple/..`,
	`count(/tupleset/tuple/content/service/ancestor::tupleset)`,
	`/tupleset/tuple/content/service/attr/ancestor-or-self::*/name()`,
	`/tupleset/tuple/preceding-sibling::tuple[1]/@link`,
	`/tupleset/tuple[3]/following-sibling::tuple/@link`,
	`string(root((/tupleset/tuple)[last()]/content)/tupleset/@registry)`,
	`count(/tupleset/tuple/root(.)/tupleset)`,
	`/tupleset/tuple[@owner = /tupleset/tuple[1]/@owner]/@link`,
	`/tupleset/tuple[content/service/@domain = //service[1]/@domain]/@link`,
	`/tupleset/tuple[@owner="atlas"]/@link | /tupleset/tuple[@owner="cms"]/content/service/@name | /tupleset/@registry`,
	`(/tupleset/tuple[2] | <x/> | /tupleset)/name()`,
	`let $ts := /tupleset/tuple return $ts/content/service/@name`,
	`let $ts := reverse(/tupleset/tuple) return ($ts/content/service)[1]/@name`,
	`(<first/>, /tupleset/tuple[1]/@link, <n>{count(/tupleset/tuple)}</n>)`,
	`for $t in /tupleset/tuple[position() < 3] return <hit link="{$t/@link}">{$t/content/service/attr}</hit>`,
	`count(/tupleset/tuple except /tupleset/tuple[@owner="cms"])`,
	`/tupleset/tuple[last()]/content/service/interface/operation/bind/../../../../../@link`,
}, planCorpus...)

// TestTupleSetMatchesBuildView is the registry's differential: every query,
// whether its tuples come from a tuple source or from a pinned tuple set
// (shared parentless elements under a per-filter root), serializes
// byte-identically to the same query evaluated over BuildView's
// from-scratch, fully parented document, buffered and streamed; a consumer
// that stops after k items sees the reference's first k, and a streamed
// evaluation returns no sequence.
func TestTupleSetMatchesBuildView(t *testing.T) {
	r := newPlanTestRegistry(t, 45, 5)
	for _, f := range corpusFilters {
		ref := r.BuildView(f, Freshness{})
		for _, src := range tupleSetCorpus {
			want, wantErr := xq.EvalString(src, ref)
			got, gotErr := r.Query(src, QueryOptions{Filter: f})
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("filter %+v query %q: err %v vs %v", f, src, gotErr, wantErr)
			}
			if g, w := xq.Serialize(got), xq.Serialize(want); g != w {
				t.Errorf("filter %+v query %q:\nregistry:  %s\nBuildView: %s", f, src, g, w)
			}
			if wantErr != nil {
				continue
			}
			for _, stopAfter := range []int{0, 1, 3} {
				var items xq.Sequence
				seq, err := r.Query(src, QueryOptions{Filter: f, Emit: func(it xq.Item) bool {
					items = append(items, it)
					return stopAfter == 0 || len(items) < stopAfter
				}})
				n := len(want)
				if stopAfter > 0 {
					n = min(n, stopAfter)
				}
				if err != nil || seq != nil || xq.Serialize(items) != xq.Serialize(want[:n]) {
					t.Errorf("filter %+v query %q stop %d: err %v, returned %d items, streamed %s, BuildView %s",
						f, src, stopAfter, err, len(seq), xq.Serialize(items), xq.Serialize(want[:n]))
				}
			}
		}
	}
	if st := r.Stats(); st.PlanHits == 0 || st.PlanFallbacks == 0 {
		t.Fatalf("stats: hits=%d fallbacks=%d, want both > 0", st.PlanHits, st.PlanFallbacks)
	}
}

// TestStreamedQueryPinsTupleSet blocks a streamed unplannable query inside
// its Emit callback and, while it is stuck, publishes, unpublishes and runs
// buffered and streamed queries to completion: nothing may wait on the
// blocked consumer, and once released it must deliver exactly the tuple
// set it pinned.
func TestStreamedQueryPinsTupleSet(t *testing.T) {
	r := New(Config{Name: "pin", DefaultTTL: time.Hour})
	var pinned []string
	for i := 0; i < 20; i++ {
		ts := &tuple.Tuple{Link: fmt.Sprintf("http://pin.net/s%02d", i), Type: tuple.TypeService}
		if _, err := r.Publish(ts, 0); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, ts.Link)
	}
	const links = `for $t in /tupleset/tuple return string($t/@link)`

	started, release := make(chan struct{}), make(chan struct{})
	var blockedOut []string
	blockedDone := make(chan error, 1)
	go func() {
		_, err := r.Query(links, QueryOptions{Emit: func(it xq.Item) bool {
			if len(blockedOut) == 0 {
				close(started)
				<-release
			}
			blockedOut = append(blockedOut, xq.StringValue(it))
			return true
		}})
		blockedDone <- err
	}()
	<-started

	others := make(chan error, 1)
	go func() {
		others <- func() error {
			for i := 0; i < 10; i++ {
				ts := &tuple.Tuple{Link: fmt.Sprintf("http://pin.net/new%02d", i), Type: tuple.TypeService}
				if _, err := r.Publish(ts, 0); err != nil {
					return err
				}
				r.Unpublish(pinned[i])
				seq, err := r.Query(links, QueryOptions{})
				if err != nil || len(seq) != 20 {
					return fmt.Errorf("buffered query during block: %d items, err %v", len(seq), err)
				}
				n := 0
				if _, err := r.Query(links, QueryOptions{Emit: func(xq.Item) bool { n++; return true }}); err != nil || n != 20 {
					return fmt.Errorf("streamed query during block: %d items, err %v", n, err)
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("publishes and queries waited on a consumer blocked in Emit")
	}

	close(release)
	if err := <-blockedDone; err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(blockedOut, "\n"), strings.Join(pinned, "\n"); got != want {
		t.Errorf("blocked query delivered\n%s\nwant its pin-time tuple set\n%s", got, want)
	}
}

// TestViewEvictionKeepsHotFilter asserts LRU eviction: a stream of one-off
// filters must evict each other, not the constantly re-used hot filter's
// view.
func TestViewEvictionKeepsHotFilter(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	r.Publish(svcTuple("hot", "cern.ch", 0.1), 0)
	hot := Filter{LinkPrefix: "http://cern.ch/hot"}
	if got := countTuples(t, r, QueryOptions{Filter: hot}); got != 1 {
		t.Fatalf("count = %d", got)
	}
	rebuilds := r.Stats().ViewRebuilds
	for i := 0; i < 3*maxCachedViews; i++ {
		f := Filter{LinkPrefix: fmt.Sprintf("http://one-off%d.net/", i)}
		countTuples(t, r, QueryOptions{Filter: f})
		if got := countTuples(t, r, QueryOptions{Filter: hot}); got != 1 {
			t.Fatalf("round %d: hot filter count = %d", i, got)
		}
	}
	st := r.Stats()
	if hotRebuilds := st.ViewRebuilds - rebuilds - int64(3*maxCachedViews); hotRebuilds != 0 {
		t.Errorf("hot filter's view was evicted and rebuilt %d times", hotRebuilds)
	}
}

func TestViewCacheEviction(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	for i := 0; i < 3; i++ {
		r.Publish(svcTuple(fmt.Sprintf("s%d", i), "cern.ch", 0.1), 0)
	}
	// Far more distinct filters than the view cache holds; every answer
	// must stay correct while victims are evicted and rebuilt on demand.
	for i := 0; i < 3*maxCachedViews; i++ {
		f := Filter{LinkPrefix: fmt.Sprintf("http://cern.ch/s%d", i%3)}
		if got := countTuples(t, r, QueryOptions{Filter: f}); got != 1 {
			t.Fatalf("filter %d: count = %d", i, got)
		}
	}
	r.viewMu.Lock()
	cached := len(r.views)
	r.viewMu.Unlock()
	if cached > maxCachedViews {
		t.Errorf("view cache grew to %d, cap %d", cached, maxCachedViews)
	}
}

func TestViewJournalOverflowResync(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	for i := 0; i < 5; i++ {
		r.Publish(svcTuple(fmt.Sprintf("s%d", i), "cern.ch", 0.1), 0)
	}
	if got := countTuples(t, r, QueryOptions{}); got != 5 {
		t.Fatalf("count = %d", got)
	}
	// Overflow the store's bounded journal so the next query must take
	// the full-resync path rather than incremental changes.
	hot := svcTuple("hot", "cern.ch", 0.5)
	for i := 0; i < 5000; i++ {
		r.Publish(hot, 0)
	}
	r.Unpublish("http://cern.ch/s0")
	if got := countTuples(t, r, QueryOptions{}); got != 5 {
		t.Fatalf("count after resync = %d, want 5", got)
	}
}

func TestViewFreshnessStillPulls(t *testing.T) {
	clk := newFakeClock()
	f := &trackingFetcher{}
	r := newTestRegistry(clk, f)
	bare := &tuple.Tuple{Link: "http://cern.ch/bare", Type: tuple.TypeService}
	r.Publish(bare, 0)
	// Warm the no-freshness view first: a later PullMissing query must
	// still trigger the pull even though a cached view exists.
	if got := countTuples(t, r, QueryOptions{}); got != 1 {
		t.Fatalf("count = %d", got)
	}
	seq, err := r.Query(`count(/tupleset/tuple/content/service)`, QueryOptions{
		Freshness: Freshness{PullMissing: true},
	})
	if err != nil || xq.StringValue(seq[0]) != "1" {
		t.Fatalf("pulled content not in view: %v %v", seq, err)
	}
	if f.count(bare.Link) != 1 {
		t.Errorf("pulls = %d, want 1", f.count(bare.Link))
	}
	// Steady state: content cached, no more pulls, view served warm.
	for i := 0; i < 3; i++ {
		r.Query(`count(/tupleset/tuple/content/service)`, QueryOptions{ //nolint:errcheck
			Freshness: Freshness{PullMissing: true},
		})
	}
	if f.count(bare.Link) != 1 {
		t.Errorf("pulls after steady state = %d, want 1", f.count(bare.Link))
	}
}
