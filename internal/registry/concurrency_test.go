package registry

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// TestStressViewCoherence interleaves every mutating and querying operation
// of the registry under the race detector and asserts tuple-set coherence:
// a query must never observe a tuple that was unpublished before the query
// pinned its snapshot.
func TestStressViewCoherence(t *testing.T) {
	r := New(Config{Name: "stress", DefaultTTL: time.Minute})
	const (
		publishers = 4
		queriers   = 4
		rounds     = 200
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Background publishers churn their own disjoint key ranges.
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				link := fmt.Sprintf("http://churn%d.net/s%d", p, i%8)
				switch i % 4 {
				case 0, 1, 2:
					ts := &tuple.Tuple{Link: link, Type: tuple.TypeService, Context: "churn"}
					if _, err := r.Publish(ts, 0); err != nil {
						t.Error(err)
						return
					}
				case 3:
					r.Unpublish(link)
				}
			}
		}(p)
	}
	// Background sweeper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Sweep()
			}
		}
	}()
	// Queriers mixing interpreted XQueries (buffered and streamed), planned
	// ones and indexed MinQueries. Node results are read after Query
	// returns: they alias shared elements and tuple-set roots, which stay
	// safe to read only because nothing ever writes to them again.
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Query(`count(/tupleset/tuple)`, QueryOptions{}); err != nil {
					t.Error(err)
					return
				}
				seq, err := r.Query(`/tupleset/tuple[@ctx="churn"]`, QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				for _, it := range seq {
					n, ok := it.(*xmldoc.Node)
					if !ok {
						t.Error("node query returned non-node item")
						return
					}
					if link, _ := n.Attr("link"); link == "" {
						t.Error("result tuple lost its link attribute")
						return
					}
					_ = n.String()
				}
				// The root element lists every tuple of the pinned set;
				// serializing it after return races with advances if one
				// ever edited a published root in place.
				seq, err = r.Query(`/tupleset`, QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if root, ok := seq[0].(*xmldoc.Node); ok {
					_ = root.String()
				}
				// Streamed and unplannable: items are serialized inside
				// Emit, while publishers keep advancing the store.
				_, err = r.Query(`for $t in /tupleset/tuple where $t/@ctx = "churn" return $t`, QueryOptions{
					Emit: func(it xq.Item) bool {
						_ = it.(*xmldoc.Node).String()
						return true
					}})
				if err != nil {
					t.Error(err)
					return
				}
				r.MinQuery(Filter{Context: "churn"})
			}
		}()
	}

	// The coherence checker owns one link nobody else touches: after its
	// unpublish returns, no subsequent snapshot may contain the tuple.
	link := "http://coherence.net/svc"
	q := fmt.Sprintf(`count(/tupleset/tuple[@link=%q])`, link)
	for i := 0; i < rounds; i++ {
		ts := &tuple.Tuple{Link: link, Type: tuple.TypeService, Context: "coherence"}
		if _, err := r.Publish(ts, 0); err != nil {
			t.Fatal(err)
		}
		if got := r.MinQuery(Filter{LinkPrefix: link}); len(got) != 1 {
			t.Fatalf("round %d: published tuple invisible to MinQuery", i)
		}
		r.Unpublish(link)
		if got := r.MinQuery(Filter{LinkPrefix: link}); len(got) != 0 {
			t.Fatalf("round %d: unpublished tuple visible to MinQuery", i)
		}
		seq, err := r.Query(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := int(xq.NumberValue(seq[0])); n != 0 {
			t.Fatalf("round %d: unpublished tuple visible in view snapshot (count=%d)", i, n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSingleFlightPull asserts that concurrent queries needing the same
// missing content issue exactly one fetch.
func TestSingleFlightPull(t *testing.T) {
	block := make(chan struct{})
	var calls int
	var mu sync.Mutex
	fetcher := FetcherFunc(func(link string) (*xmldoc.Node, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-block
		return svcContent("fresh", "cern.ch", 0.5), nil
	})
	r := New(Config{Name: "sf", DefaultTTL: time.Minute, Fetcher: fetcher,
		MinPullInterval: time.Hour})
	bare := &tuple.Tuple{Link: "http://cern.ch/bare", Type: tuple.TypeService}
	if _, err := r.Publish(bare, 0); err != nil {
		t.Fatal(err)
	}

	const concurrent = 8
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.Query(`count(/tupleset/tuple/content/service)`, QueryOptions{
				Freshness: Freshness{PullMissing: true},
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Give every querier time to reach the flight, then release the fetch.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("fetch calls = %d, want 1 (single-flight)", calls)
	}
	st := r.Stats()
	if st.Pulls != 1 {
		t.Errorf("pulls = %d, want 1", st.Pulls)
	}
	if st.Throttled != 0 {
		t.Errorf("throttled = %d: flight joiners must not count as throttled", st.Throttled)
	}
}

// TestMemoConcurrentReadersAndPublishers races publishers against readers
// of one slot: each reader evaluates memoQueries and a scan QueryCompiled
// reads from the memo over the pinned tuple set with the set's memo, as
// QueryCompiled does, and holds each answer to the same query over the
// same snapshot without one; others run the queries through QueryCompiled.
// Run under -race (make check, make stress).
func TestMemoConcurrentReadersAndPublishers(t *testing.T) {
	r := New(Config{Name: "memo", DefaultTTL: time.Minute, JournalCap: 4})
	var queries []*xq.Query
	for _, src := range append(memoQueries[:len(memoQueries):len(memoQueries)], `/tupleset/tuple/content/service[attr[@name="kind"]/@value="storage-element"]/@name`) {
		queries = append(queries, xq.MustCompile(src))
	}
	publish := func(rng *rand.Rand) {
		tp := &tuple.Tuple{Link: orderLinks[rng.Intn(len(orderLinks))], Type: tuple.TypeService, Content: memoContent(rng)}
		if _, err := r.Publish(tp, 0); err != nil {
			t.Error(err)
		}
	}
	seed := rand.New(rand.NewSource(1))
	for range orderLinks {
		publish(seed)
	}
	var wg sync.WaitGroup
	run := func(n int, body func(rng *rand.Rand, i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 300 && !t.Failed(); i++ {
				body(rng, i)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(w, func(rng *rand.Rand, _ int) {
			if rng.Intn(4) == 0 {
				r.Unpublish(orderLinks[rng.Intn(len(orderLinks))])
			} else {
				publish(rng)
			}
		})
	}
	for w := 2; w < 6; w++ {
		run(w, func(rng *rand.Rand, i int) {
			q := queries[i%len(queries)]
			if w%2 == 0 {
				if _, err := r.QueryCompiled(q, QueryOptions{}); err != nil {
					t.Error(err)
				}
				return
			}
			s := r.pinTupleSet(Filter{}, Freshness{}, "")
			got, err := q.Eval(&xq.Options{Context: s.doc, Memo: &s.memo})
			want, wantErr := q.Eval(&xq.Options{Context: s.doc})
			if err != nil || wantErr != nil || xq.Serialize(got) != xq.Serialize(want) {
				t.Errorf("%s with the memo: %s (err %v); without: %s (err %v)", q.Source(), xq.Serialize(got), err, xq.Serialize(want), wantErr)
			}
		})
	}
	wg.Wait()
}

// TestMemoResultsNotShared is the mutation canary: a node list a pinned
// tuple set's memo holds is handed to every query on that generation, and
// an advance carries it to the next, so a caller that overwrites every item
// of its result must not change what the next query returns, on the same
// generation or after a refresh.
func TestMemoResultsNotShared(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Name: "memo", DefaultTTL: time.Minute, Metrics: m})
	publish := func(i int, kind string) {
		content := xmldoc.MustParse(fmt.Sprintf(`<service name="s%d"><attr name="kind" value=%q/></service>`, i, kind))
		tp := &tuple.Tuple{Link: fmt.Sprintf("http://a.org/s%d", i), Type: tuple.TypeService, Content: content.DocumentElement().Clone()}
		if _, err := r.Publish(tp, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, kind := range []string{"storage-element", "compute-element", "storage-element"} {
		publish(i, kind)
	}
	for _, refresh := range []bool{false, true} {
		if refresh {
			publish(1, "storage-element")
		}
		for _, src := range []string{
			`/tupleset/*/content/service`,
			`declare variable $s := /tupleset/tuple/content/service; $s`,
			`/tupleset/*/content/service[attr[@name="kind"]/@value="storage-element"]`,
			`/tupleset/tuple/content/service[attr[@name="kind"]/@value="storage-element"]`, // a scan read from the memo
		} {
			first, err := r.Query(src, QueryOptions{})
			if err != nil || len(first) < 2 {
				t.Fatalf("%s: %d items, err %v", src, len(first), err)
			}
			want, gen := xq.Serialize(first), r.Gen()
			if ref, _ := xq.MustCompile(src).EvalDoc(r.BuildView(Filter{}, Freshness{})); xq.Serialize(ref) != want {
				t.Errorf("%s (refreshed %v): %s, over BuildView %s", src, refresh, want, xq.Serialize(ref))
			}
			for i := range first {
				first[i] = "overwritten"
			}
			again, err := r.Query(src, QueryOptions{})
			if err != nil || r.Gen() != gen || xq.Serialize(again) != want {
				t.Errorf("%s after its last result was overwritten: %s (err %v), want %s", src, xq.Serialize(again), err, want)
			}
		}
	}
	memo := m.CounterVec("wsda_registry_memo_total", "", "registry", "outcome")
	st := r.Stats()
	if st.MemoHits == 0 || st.MemoBuilds == 0 || st.MemoCarries == 0 {
		t.Errorf("memo hits %d, builds %d, carries %d: the canary never read a memo or carried one", st.MemoHits, st.MemoBuilds, st.MemoCarries)
	}
	if hit, build, carry := memo.With("memo", "hit").Value(), memo.With("memo", "build").Value(), memo.With("memo", "carry").Value(); hit != st.MemoHits || build != st.MemoBuilds || carry != st.MemoCarries {
		t.Errorf("wsda_registry_memo_total hit %d, build %d, carry %d; Stats %d, %d, %d", hit, build, carry, st.MemoHits, st.MemoBuilds, st.MemoCarries)
	}
}
