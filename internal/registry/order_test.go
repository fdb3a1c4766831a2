package registry

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// orderLinks is the generated tests' link universe: strict prefixes of one
// another (svc-1, svc-10, svc-11), shared stems, and two hosts.
var orderLinks = []string{
	"http://a.org/svc-1", "http://a.org/svc-10", "http://a.org/svc-11", "http://a.org/svc-2",
	"http://a.org/x", "http://b.org/svc-1", "http://b.org/svc-10", "http://b.org/y", "http://c.org/z",
}

// orderPrefixes are the LinkPrefix values every ordered read is checked
// under: everything, a full link that is a strict prefix of others, a full
// link that is not, shared stems, before the first link, past the last, and
// a gap between links.
var orderPrefixes = []string{
	"", "http://a.org/svc-1", "http://b.org/y", "http://a.org/svc-", "http://b.org/",
	"a", "zzz", "http://a.org/svc-3",
}

// referenceMinQuery is MinQuery as the store states it: Live() at call
// time, filtered, sorted by link, serialized with every timestamp.
func referenceMinQuery(r *Registry, f Filter) string {
	var ts []*tuple.Tuple
	for _, e := range r.store.Live() {
		if f.match(e.Value.Tuple) {
			ts = append(ts, e.Value.Tuple)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Link < ts[j].Link })
	return serializeTuples(ts)
}

func serializeTuples(ts []*tuple.Tuple) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.ToXML().String())
	}
	return sb.String()
}

// TestOrderedReadsGenerated drives a registry on an injected clock through
// random publishes and refreshes (TTLs short enough that members passively
// expire between steps), unpublishes, sweeps and bursts that overflow a
// four-record journal, and after every step checks, under every prefix,
// MinQuery against the store's own Live()+filter+sort, and the scan against
// the same query evaluated over BuildView, buffered and stopped early.
func TestOrderedReadsGenerated(t *testing.T) {
	const journalCap = 4
	steps, overflows := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		r := New(Config{Name: "r", DefaultTTL: time.Minute, MaxTTL: time.Hour, JournalCap: journalCap, Now: clk.Now})
		mutate := func() {
			link := orderLinks[rng.Intn(len(orderLinks))]
			switch op := rng.Intn(10); {
			case op < 6:
				tp := &tuple.Tuple{Link: link, Type: tuple.TypeService, Context: "child"}
				if rng.Intn(2) == 0 {
					tp.Type = tuple.TypeNode
				}
				if rng.Intn(3) > 0 { // else a refresh keeps the cached copy
					tp.Content = memoContent(rng)
				}
				ttl := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 0}[rng.Intn(4)]
				if _, err := r.Publish(tp, ttl); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				r.Unpublish(link)
			default:
				r.Sweep()
			}
		}
		for step := 0; step < 500; step++ {
			gen := r.Gen()
			switch op := rng.Intn(10); {
			case op < 6:
				mutate()
			case op < 8:
				clk.Advance(time.Duration(1+rng.Intn(6)) * 250 * time.Millisecond)
			default:
				for n := 5 + rng.Intn(4); n > 0; n-- {
					mutate()
				}
			}
			steps++
			if r.Gen()-gen > journalCap {
				overflows++
			}
			for _, p := range orderPrefixes {
				checkOrderedReads(t, fmt.Sprintf("seed %d step %d prefix %q", seed, step, p), r, Filter{LinkPrefix: p})
			}
			for _, f := range []Filter{{}, {LinkPrefix: "http://a.org/"}} {
				checkMemoReads(t, fmt.Sprintf("seed %d step %d filter %+v", seed, step, f), r, f, genMemoQueries(rng))
			}
			if t.Failed() {
				return
			}
		}
	}
	if steps < 2000 || overflows == 0 {
		t.Fatalf("%d steps, %d journal overflows: want >= 2000 and > 0", steps, overflows)
	}
}

// checkOrderedReads compares one registry's ordered reads under f with
// their references.
func checkOrderedReads(t *testing.T, at string, r *Registry, f Filter) {
	t.Helper()
	if got, want := serializeTuples(r.MinQuery(f)), referenceMinQuery(r, f); got != want {
		t.Fatalf("%s: MinQuery\n got %s\nwant %s", at, got, want)
	}
	view := r.BuildView(f, Freshness{})
	for _, src := range []string{`/tupleset/tuple`, `/tupleset/tuple/@link`} {
		q := xq.MustCompile(src)
		for _, stopAfter := range []int{0, 1, 2, 5} {
			var got, want xq.Sequence
			emit := func(items *xq.Sequence) func(xq.Item) bool {
				if stopAfter == 0 {
					return nil
				}
				return func(it xq.Item) bool { *items = append(*items, it); return len(*items) < stopAfter }
			}
			var info PlanInfo
			seq, err := r.QueryCompiled(q, QueryOptions{Filter: f, Explain: &info, Emit: emit(&got)})
			if err != nil {
				t.Fatalf("%s: %s: %v", at, src, err)
			}
			got = append(got, seq...)
			if info != (PlanInfo{Mode: "scan"}) {
				t.Fatalf("%s: %s explained as %+v, want a scan", at, src, info)
			}
			ref, err := q.Eval(&xq.Options{Context: view, Emit: emit(&want)})
			if err != nil {
				t.Fatalf("%s: %s over BuildView: %v", at, src, err)
			}
			if want = append(want, ref...); xq.Serialize(got) != xq.Serialize(want) {
				t.Fatalf("%s: %s stop %d:\nregistry  %s\nBuildView %s", at, src, stopAfter, xq.Serialize(got), xq.Serialize(want))
			}
		}
	}
}

// memoQueries are canonical Q6–Q10 (internal/workload, which imports this
// package): the queries that share a pinned tuple set's memo.
var memoQueries = []string{
	`let $ce := /tupleset/tuple/content/service[attr[@name="kind"]/@value="compute-element"]
for $s at $i in (for $c in $ce order by number($c/attr[@name="load"]/@value) return $c)
where $i <= 3
return string($s/@name)`,
	`for $s in /tupleset/tuple/content/service[attr[@name="kind"]/@value="storage-element"]
where number($s/attr[@name="diskGB"]/@value) > 1000
order by number($s/attr[@name="diskGB"]/@value) descending
return $s/@name`,
	`for $d in distinct-values(/tupleset/tuple/content/service/@domain)
let $svcs := /tupleset/tuple/content/service[@domain = $d]
order by $d
return <domain name="{$d}" services="{count($svcs)}"
  avgload="{avg(for $l in $svcs/attr[@name="load"]/@value return number($l))}"/>`,
	`for $j in /tupleset/tuple/content/service[attr[@name="kind"]/@value="job-scheduler"],
    $s in /tupleset/tuple/content/service[attr[@name="kind"]/@value="storage-element"]
where $j/@domain = $s/@domain
  and number($j/attr[@name="load"]/@value) < 0.3
  and number($s/attr[@name="load"]/@value) < 0.3
return <pair scheduler="{$j/@name}" storage="{$s/@name}" domain="{$j/@domain}"/>`,
	`let $xfer := /tupleset/tuple/content/service[attr[@name="kind"]/@value="file-transfer"]
return <summary services="{count($xfer)}"
  domains="{count(distinct-values($xfer/@domain))}"
  totalDiskGB="{sum(for $d in $xfer/attr[@name="diskGB"]/@value return number($d))}"/>`,
}

var (
	memoKinds   = []string{"compute-element", "storage-element", "job-scheduler", "file-transfer"}
	memoDomains = []string{"a.org", "b.org", "c.org"}
)

// memoContent generates a service description with the attributes
// memoQueries read.
func memoContent(rng *rand.Rand) *xmldoc.Node {
	return xmldoc.MustParse(fmt.Sprintf(
		`<service name="s%d" domain=%q><attr name="kind" value=%q/><attr name="load" value="0.%d"/><attr name="diskGB" value="%d"/></service>`,
		rng.Intn(100), memoDomains[rng.Intn(len(memoDomains))], memoKinds[rng.Intn(len(memoKinds))],
		rng.Intn(10), 500*rng.Intn(5))).DocumentElement().Clone()
}

// genMemoQueries returns memoQueries and generated sources over the same
// node lists and indexes: literal probes, probes keyed by a variable, and
// invariant paths, at the top level and under loops.
func genMemoQueries(rng *rand.Rand) []string {
	kind := func() string { return memoKinds[rng.Intn(len(memoKinds))] }
	dom := func() string { return memoDomains[rng.Intn(len(memoDomains))] }
	return append(memoQueries[:len(memoQueries):len(memoQueries)],
		fmt.Sprintf(`/tupleset/*/content/service[attr[@name="kind"]/@value=%q]/@name`, kind()),
		fmt.Sprintf(`count(/tupleset/tuple/content/service[@domain=%q]), /tupleset/*/content/service`, dom()),
		fmt.Sprintf(`for $k in (%q, %q) return count(/tupleset/tuple/content/service[attr[@name="kind"]/@value = $k])`, kind(), kind()),
		fmt.Sprintf(`for $s in /tupleset/tuple/content/service[@domain=%q] return /tupleset/tuple/content/service[attr[@name="kind"]/@value = $s/attr[@name="kind"]/@value]/@name`, dom()),
		`for $t in /tupleset/tuple return ($t/@link, count(/tupleset/tuple/content/service/attr), $t/..[1]/@registry)`,
	)
}

// checkMemoReads compares every query over f's pinned tuple set, twice, so
// that the second reads what the first left in the set's memo, with plain
// xq over BuildView.
func checkMemoReads(t *testing.T, at string, r *Registry, f Filter, queries []string) {
	t.Helper()
	view := r.BuildView(f, Freshness{})
	for _, src := range queries {
		q := xq.MustCompile(src)
		want, err := q.Eval(&xq.Options{Context: view})
		if err != nil {
			t.Fatalf("%s: %s over BuildView: %v", at, src, err)
		}
		for _, pass := range []string{"first", "second"} {
			got, err := r.QueryCompiled(q, QueryOptions{Filter: f})
			if err != nil || xq.Serialize(got) != xq.Serialize(want) {
				t.Fatalf("%s: %s, %s pass (err %v):\nregistry  %s\nBuildView %s", at, src, pass, err, xq.Serialize(got), xq.Serialize(want))
			}
		}
	}
}

// TestOrderedReadsConcurrent races publishers and unpublishers against
// planned scans (buffered and stopped early) and link-prefix MinQueries over
// a journal small enough to force full re-reads; under -race every answer
// must be link-sorted, duplicate-free and made only of published tuples.
func TestOrderedReadsConcurrent(t *testing.T) {
	r := New(Config{Name: "r", DefaultTTL: time.Minute, JournalCap: 4})
	published := make(map[string]bool, len(orderLinks))
	for _, l := range orderLinks {
		published[l] = true
	}
	check := func(what string, links []string) {
		for i, l := range links {
			if !published[l] {
				t.Errorf("%s: unpublished link %q", what, l)
			}
			if i > 0 && links[i-1] >= l {
				t.Errorf("%s: %q after %q: not sorted or duplicated", what, l, links[i-1])
			}
		}
	}
	var wg sync.WaitGroup
	run := func(n int, body func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 3000 && !t.Failed(); i++ {
				body(rng)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(w, func(rng *rand.Rand) {
			l := orderLinks[rng.Intn(len(orderLinks))]
			if _, err := r.Publish(&tuple.Tuple{Link: l, Type: tuple.TypeService}, 0); err != nil {
				t.Error(err)
			}
		})
	}
	run(2, func(rng *rand.Rand) { r.Unpublish(orderLinks[rng.Intn(len(orderLinks))]) })
	run(3, func(rng *rand.Rand) {
		f := Filter{LinkPrefix: orderPrefixes[rng.Intn(len(orderPrefixes))]}
		var links []string
		for _, tp := range r.MinQuery(f) {
			links = append(links, tp.Link)
		}
		check("MinQuery", links)
	})
	for w := 4; w < 6; w++ {
		run(w, func(rng *rand.Rand) {
			opts := QueryOptions{Filter: Filter{LinkPrefix: orderPrefixes[rng.Intn(len(orderPrefixes))]}}
			var links []string
			if stop := rng.Intn(4); stop > 0 {
				opts.Emit = func(it xq.Item) bool { links = append(links, xq.StringValue(it)); return len(links) < stop }
			}
			seq, err := r.Query(`/tupleset/tuple/@link`, opts)
			if err != nil {
				t.Error(err)
			}
			for _, it := range seq {
				links = append(links, xq.StringValue(it))
			}
			check("scan", links)
		})
	}
	wg.Wait()
}

// counts is the slice of Stats that the ordered read paths must account
// exactly as before they read the pinned Filter{} tuple set.
type counts struct {
	CacheHits, CacheMisses, Pulls, Throttled int64
	ViewHits, ViewMisses                     int64
}

func countsOf(st Stats) counts {
	return counts{st.CacheHits, st.CacheMisses, st.Pulls, st.Throttled, st.ViewHits, st.ViewMisses}
}

func (c counts) minus(o counts) counts {
	return counts{c.CacheHits - o.CacheHits, c.CacheMisses - o.CacheMisses, c.Pulls - o.Pulls,
		c.Throttled - o.Throttled, c.ViewHits - o.ViewHits, c.ViewMisses - o.ViewMisses}
}

// TestOrderedReadAccounting pins the counters of planned scans and MinQuery
// step by step: neither counts a view hit or miss (those are per
// interpreted query), and a scan's freshness accounting is per surviving
// candidate, early stop included. The table's deltas were recorded on the
// tree before scans read the tuple set, where both paths copied the store;
// the interpreted steps use a filter no ordered read pins, because the
// Filter{} slot is shared on purpose, which the tail of the test checks.
func TestOrderedReadAccounting(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, &trackingFetcher{}) // MinPullInterval = 10s
	for _, tp := range []*tuple.Tuple{
		svcTuple("a", "cern.ch", 0.1),
		svcTuple("b", "cern.ch", 0.2),
		svcTuple("c", "infn.it", 0.3),
		{Link: "http://cern.ch/bare1", Type: tuple.TypeService},
		{Link: "http://infn.it/bare2", Type: tuple.TypeService},
	} {
		if _, err := r.Publish(tp, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	query := func(src string, f Filter, fresh Freshness, stopAfter int) func() {
		return func() {
			opts := QueryOptions{Filter: f, Freshness: fresh}
			if stopAfter > 0 {
				n := 0
				opts.Emit = func(xq.Item) bool { n++; return n < stopAfter }
			}
			if _, err := r.Query(src, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	cern := Filter{LinkPrefix: "http://cern.ch/"}
	child := Filter{Context: "child"} // a slot no ordered read pins
	steps := []struct {
		name string
		do   func()
		want counts
	}{
		{"minquery all", func() { r.MinQuery(Filter{}) }, counts{}},
		{"minquery prefix", func() { r.MinQuery(cern) }, counts{}},
		{"scan", query(`/tupleset/tuple`, Filter{}, Freshness{}, 0), counts{CacheHits: 3}},
		{"scan prefix", query(`/tupleset/tuple/@link`, cern, Freshness{}, 0), counts{CacheHits: 2}},
		{"scan pull-missing", query(`/tupleset/tuple`, Filter{}, Freshness{PullMissing: true}, 0),
			counts{CacheHits: 3, CacheMisses: 2, Pulls: 2}},
		{"scan pulled", query(`/tupleset/tuple`, Filter{}, Freshness{PullMissing: true}, 0), counts{CacheHits: 5}},
		{"advance 30s", func() { clk.Advance(30 * time.Second) }, counts{}},
		{"scan max-age", query(`/tupleset/tuple`, Filter{}, Freshness{MaxAge: 20 * time.Second}, 0),
			counts{CacheMisses: 5, Pulls: 5}},
		{"advance 2s", func() { clk.Advance(2 * time.Second) }, counts{}},
		{"scan throttled", query(`/tupleset/tuple`, Filter{}, Freshness{MaxAge: time.Second}, 0),
			counts{CacheMisses: 5, Throttled: 5}},
		{"scan page of 1", query(`/tupleset/tuple`, Filter{}, Freshness{MaxAge: time.Second}, 1),
			counts{CacheMisses: 1, Throttled: 1}},
		{"scan prefix page of 1", query(`/tupleset/tuple`, cern, Freshness{PullMissing: true}, 1),
			counts{CacheHits: 1}},
		{"index(type) scan", query(`/tupleset/tuple[@type="service"]`, Filter{}, Freshness{}, 0), counts{CacheHits: 5}},
		{"interpreted miss", query(`count(/tupleset/tuple)`, child, Freshness{}, 0), counts{CacheHits: 3, ViewMisses: 1}},
		{"interpreted hit", query(`count(/tupleset/tuple)`, child, Freshness{}, 0), counts{CacheHits: 3, ViewHits: 1}},
		{"minquery after interpreted", func() { r.MinQuery(Filter{}) }, counts{}},
		{"scan after interpreted", query(`/tupleset/tuple`, Filter{}, Freshness{}, 0), counts{CacheHits: 5}},
	}
	for _, s := range steps {
		before := countsOf(r.Stats())
		s.do()
		if got := countsOf(r.Stats()).minus(before); got != s.want {
			t.Errorf("%s: counts %+v, want %+v", s.name, got, s.want)
		}
	}

	// The Filter{} slot is shared: an advance a MinQuery pays is counted as
	// a rebuild, and the unfiltered interpreted query after it is a hit.
	if _, err := r.Publish(svcTuple("d", "cern.ch", 0.4), time.Hour); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	r.MinQuery(cern)
	query(`count(/tupleset/tuple)`, Filter{}, Freshness{}, 0)()
	after := r.Stats()
	if d := after.ViewRebuilds - before.ViewRebuilds; d != 1 {
		t.Errorf("rebuilds after publish, MinQuery, interpreted query: %d, want 1", d)
	}
	if after.ViewHits-before.ViewHits != 1 || after.ViewMisses != before.ViewMisses {
		t.Errorf("view hits %d -> %d, misses %d -> %d: want one hit", before.ViewHits, after.ViewHits,
			before.ViewMisses, after.ViewMisses)
	}
}

// TestSourceFieldsBeforeFreshness: a tuple source checks a head's
// tuple-field equalities before freshness, so a candidate its index returns
// but an @owner equality rejects is never pulled for.
func TestSourceFieldsBeforeFreshness(t *testing.T) {
	r := newTestRegistry(newFakeClock(), &trackingFetcher{})
	for i, owner := range []string{"cms", "atlas", "atlas"} {
		tp := svcTuple(fmt.Sprint("s", i), "cern.ch", 0.1)
		tp.Owner, tp.Content = owner, nil
		if _, err := r.Publish(tp, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	var info PlanInfo
	seq, err := r.Query(`/tupleset/tuple[@ctx="child" and @owner="cms"]`,
		QueryOptions{Freshness: Freshness{PullMissing: true}, Explain: &info})
	if st := r.Stats(); err != nil || len(seq) != 1 || info.Index != "ctx" || st.Pulls != 1 || st.CacheMisses != 1 {
		t.Fatalf("%d items via %s, err %v: %d pulls, %d misses, want 1 each", len(seq), info, err, st.Pulls, st.CacheMisses)
	}
}
