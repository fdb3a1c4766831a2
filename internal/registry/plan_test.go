package registry

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// planTuple builds a discovery-workload-shaped tuple deterministically
// from an index, mirroring the canonical generator's service shape without
// importing the workload package (which itself imports registry).
func planTuple(i int, rng *rand.Rand) *tuple.Tuple {
	domains := []string{"cern.ch", "infn.it", "fnal.gov"}
	kinds := []string{"replica-catalog", "monitor", "gatekeeper"}
	vos := []string{"cms", "atlas", "alice"}
	d := domains[i%len(domains)]
	k := kinds[i%len(kinds)]
	name := fmt.Sprintf("%s-%04d", k, i)
	load := 0.01 * float64(rng.Intn(100))
	content := xmldoc.MustParse(fmt.Sprintf(
		`<service name=%q domain=%q>`+
			`<interface type="XQuery"><operation name="query"><bind protocol="http"/></operation></interface>`+
			`<attr name="kind" value=%q/><attr name="load" value="%.2f"/>`+
			`</service>`,
		name, d, k, load)).DocumentElement().Clone()
	return &tuple.Tuple{
		Link:    fmt.Sprintf("http://%s/%s/wsda/presenter", d, name),
		Type:    tuple.TypeService,
		Context: "child",
		Owner:   vos[i%len(vos)],
		Content: content,
	}
}

// planCorpus is the differential query corpus: every shape a tuple source
// answers, plus a spread of shapes evaluated over the pinned tuple set, all
// compared byte for byte with the same query over BuildView.
var planCorpus = []string{
	// A tuple head: answered from a tuple source.
	`/tupleset/tuple`,
	`/tupleset/tuple[@link="http://cern.ch/replica-catalog-0000/wsda/presenter"]`,
	`/tupleset/tuple[@link="http://nowhere.example/absent"]`,
	`/tupleset/tuple[@type="service"]`,
	`/tupleset/tuple[@type="service"][@ctx="child"]`,
	`/tupleset/tuple[@ctx="child" and @owner="cms"]`,
	`/tupleset/tuple[@type="a"][@type="b"]`, // statically empty (Never)
	`/tupleset/tuple[@ctx=""]`,              // empty literal stays residual
	`/tupleset/tuple[content]`,
	`/tupleset/tuple[content/service/@domain="cern.ch"]`,
	`/tupleset/tuple[@type="service"]/@link`,
	`/tupleset/tuple/@owner`,
	`/tupleset/tuple/content/service[@domain="infn.it"]`,
	`/tupleset/tuple/content/service[attr[@name="kind"]/@value="replica-catalog"]`,
	`/tupleset/tuple/content/service[interface[@type="XQuery"]/operation/bind/@protocol="http"]`,
	`/tupleset/tuple/content/service/attr[@name="load"]/@value`,
	`/tupleset/tuple[content/service/attr[@name="load"]/@value=0.25]`,
	`/tupleset/tuple[@type!="service"]`,
	`/tupleset/tuple[number(content/service/attr[@name="load"]/@value) < 0.5]`,
	// No tuple head: evaluated over the pinned tuple set.
	`count(/tupleset/tuple)`,
	`string(/tupleset/@registry)`,
	`/tupleset/tuple[1]`,
	`for $t in /tupleset/tuple where $t/@owner="cms" return $t/@link`,
	`//service/@domain`,
}

// corpusFilters are the filters every corpus query is checked under: none,
// each index, a link prefix some link equalities in the corpus match and
// one they do not, and a type nothing has.
var corpusFilters = []Filter{
	{},
	{Type: tuple.TypeService},
	{Context: "child"},
	{LinkPrefix: "http://cern.ch/"},
	{LinkPrefix: "http://infn.it/"},
	{Type: "no-such-type"},
}

// newPlanTestRegistry returns a registry holding n planTuple services,
// published in a seeded random order.
func newPlanTestRegistry(t *testing.T, n int, seed int64) *Registry {
	t.Helper()
	r := New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: newFakeClock().Now})
	for _, i := range rand.New(rand.NewSource(seed)).Perm(n) {
		if _, err := r.Publish(planTuple(i, rand.New(rand.NewSource(seed+int64(i)))), 0); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	return r
}

// TestPlannerExplainCorpus pins the X-Wsda-Plan of every corpus query under
// every corpus filter: the strings clients read, which depend on the
// query's tuple head and the filter alone.
func TestPlannerExplainCorpus(t *testing.T) {
	r := newPlanTestRegistry(t, 60, 7)
	const (
		scan0, scan1 = "scan residual=0", "scan residual=1"
		type0, type1 = "index(type) residual=0", "index(type) residual=1"
		ctx0, ctx1   = "index(ctx) residual=0", "index(ctx) residual=1"
		link, empty  = "index(link) residual=0", "index(empty) residual=0"
	)
	unfiltered0 := [6]string{scan0, type0, ctx0, scan0, scan0, type0}
	unfiltered1 := [6]string{scan1, type1, ctx1, scan1, scan1, type1}
	want := map[string][6]string{
		planCorpus[0]:  unfiltered0,
		planCorpus[1]:  {link, link, link, link, link, link},
		planCorpus[2]:  {link, link, link, link, link, link},
		planCorpus[3]:  {type0, type0, type0, type0, type0, type0},
		planCorpus[4]:  {type0, type0, type0, type0, type0, type0},
		planCorpus[5]:  {ctx0, type0, ctx0, ctx0, ctx0, type0},
		planCorpus[6]:  {empty, empty, empty, empty, empty, empty},
		planCorpus[7]:  unfiltered1,
		planCorpus[8]:  unfiltered1,
		planCorpus[9]:  unfiltered1,
		planCorpus[10]: {type0, type0, type0, type0, type0, type0},
		planCorpus[11]: unfiltered0,
		planCorpus[12]: unfiltered0,
		planCorpus[13]: unfiltered0,
		planCorpus[14]: unfiltered0,
		planCorpus[15]: unfiltered0,
		planCorpus[16]: unfiltered1,
		planCorpus[17]: unfiltered1,
		planCorpus[18]: unfiltered1,
	}
	for _, src := range planCorpus {
		w, ok := want[src]
		if !ok {
			w = [6]string{"view", "view", "view", "view", "view", "view"}
		}
		for i, f := range corpusFilters {
			var got PlanInfo
			if _, err := r.Query(src, QueryOptions{Filter: f, Explain: &got}); err != nil {
				t.Fatalf("filter %+v query %q: %v", f, src, err)
			}
			if got.String() != w[i] {
				t.Errorf("filter %+v query %q: explained as %q, want %q", f, src, got, w[i])
			}
		}
	}
}

// TestPlannerConcurrent hammers the per-revision shared elements and the
// compiled queries' memos from parallel sourced and pinned queries,
// buffered and streamed, racing live publishes; run under -race this checks
// that rendering a revision once and recognising a tuple head once are
// safe from any path.
func TestPlannerConcurrent(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: clk.Now})
	for i := 0; i < 32; i++ {
		if _, err := r.Publish(planTuple(i, rand.New(rand.NewSource(int64(i)))), 0); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`/tupleset/tuple[@type="service"]/@link`,
		`/tupleset/tuple[content/service/@domain="cern.ch"]`,
		`/tupleset/tuple[@ctx="child"]`,
		`count(/tupleset/tuple)`,
		`for $t in /tupleset/tuple where $t/@owner = "cms" return $t/content/service`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var opts QueryOptions
				if i%2 == 1 {
					opts.Emit = func(it xq.Item) bool {
						_ = xq.Serialize(xq.Sequence{it})
						return true
					}
				}
				if _, err := r.Query(queries[(w+i)%len(queries)], opts); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// Republishing installs a new revision with its own rendering.
			if _, err := r.Publish(planTuple(i%32, rand.New(rand.NewSource(int64(i)))), 0); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestPlannerExplain checks that Explain reports the chosen access path.
func TestPlannerExplain(t *testing.T) {
	planned := newPlanTestRegistry(t, 12, 3)
	cases := []struct {
		src  string
		want PlanInfo
	}{
		{`/tupleset/tuple[@link="http://cern.ch/replica-catalog-0000/wsda/presenter"]`,
			PlanInfo{Mode: "index", Index: "link"}},
		{`/tupleset/tuple[@type="service"]`, PlanInfo{Mode: "index", Index: "type"}},
		{`/tupleset/tuple[@ctx="child"]`, PlanInfo{Mode: "index", Index: "ctx"}},
		{`/tupleset/tuple[@type="a"][@type="b"]`, PlanInfo{Mode: "index", Index: "empty"}},
		{`/tupleset/tuple[content]`, PlanInfo{Mode: "scan", Residual: 1}},
		{`count(/tupleset/tuple)`, PlanInfo{Mode: "view"}},
	}
	for _, tc := range cases {
		var got PlanInfo
		if _, err := planned.Query(tc.src, QueryOptions{Explain: &got}); err != nil {
			t.Fatalf("query %q: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("query %q: explain %+v, want %+v", tc.src, got, tc.want)
		}
	}
}

// TestStepBudgetCompiledPredicates pins what -max-query-steps bounds: every
// evaluation is charged one step per node a compiled predicate is tested
// against (nested predicates included), whether its tuples come from a
// tuple source or from the pinned tuple set, so a predicated path over 1000
// tuples trips a 1000-step budget and fits the daemon's default. What
// makes a point lookup cheap is the narrowing: one candidate tested once.
func TestStepBudgetCompiledPredicates(t *testing.T) {
	clk := newFakeClock()
	mk := func(maxSteps int) *Registry {
		r := New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: clk.Now, MaxQuerySteps: maxSteps})
		for i := 0; i < 1000; i++ {
			if _, err := r.Publish(planTuple(i, rand.New(rand.NewSource(int64(i)))), 0); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	tight, roomy := mk(1000), mk(10_000_000)
	for _, src := range []string{
		`/tupleset/tuple/content/service[attr[@name="kind"]/@value="monitor"]`, // canonical Q3
		`/tupleset/tuple[content/service[interface[@type="XQuery"]]]/@link`,    // nested predicates
		`//service[attr[@name="kind"]/@value="monitor"]`,                       // no tuple head
	} {
		if _, err := tight.Query(src, QueryOptions{}); err == nil || !strings.Contains(err.Error(), "exceeded 1000 steps") {
			t.Errorf("%s under 1000 steps: err %v, want the step-limit error", src, err)
		}
		got, err := roomy.Query(src, QueryOptions{})
		if err != nil || len(got) == 0 {
			t.Fatalf("%s under the default budget: %d items, err %v", src, len(got), err)
		}
		want, err := xq.MustCompile(src).EvalDoc(roomy.BuildView(Filter{}, Freshness{}))
		if err != nil || xq.Serialize(got) != xq.Serialize(want) {
			t.Errorf("%s: %d items, over BuildView %d (err %v)", src, len(got), len(want), err)
		}
	}
	// The nested level is charged for itself: testing 1000 <service>
	// elements is 1000 steps, which a 1000-step budget allows; the <attr>
	// elements tested beneath each are what exceeds it.
	if _, err := tight.Query(`/tupleset/tuple/content/service[@domain="cern.ch"]`, QueryOptions{}); err != nil {
		t.Errorf("one predicate level over 1000 services under 1000 steps: %v", err)
	}
	// A point lookup tests one candidate against one predicate.
	var info PlanInfo
	src := `/tupleset/tuple[@link="http://cern.ch/replica-catalog-0000/wsda/presenter"]/@type`
	got, err := mk(2).Query(src, QueryOptions{Explain: &info})
	if err != nil || len(got) != 1 || info.String() != "index(link) residual=0" {
		t.Errorf("@link lookup under 2 steps: %d items (%s), err %v", len(got), info, err)
	}
}

// TestStepBudgetJoin: set-at-a-time evaluation walks a join's sources once
// and probes a hash index, but it does not make the query free — a
// Q9-shaped join over 300 tuples still trips a 1000-step budget (its two
// predicated sources alone test more nodes than that), and under the
// daemon's default it gives what the reference materialization gives.
func TestStepBudgetJoin(t *testing.T) {
	clk := newFakeClock()
	mk := func(maxSteps int) *Registry {
		r := New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: clk.Now, MaxQuerySteps: maxSteps})
		for i := 0; i < 300; i++ {
			if _, err := r.Publish(planTuple(i, rand.New(rand.NewSource(int64(i)))), 0); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	src := `for $j in /tupleset/tuple/content/service[attr[@name="kind"]/@value="monitor"],
    $s in /tupleset/tuple/content/service[attr[@name="kind"]/@value="replica-catalog"]
where $j/attr[@name="load"]/@value = $s/attr[@name="load"]/@value
return <pair monitor="{$j/@name}" catalog="{$s/@name}"/>`
	if _, err := mk(1000).Query(src, QueryOptions{}); err == nil || !strings.Contains(err.Error(), "exceeded 1000 steps") {
		t.Errorf("join over 300 tuples under 1000 steps: err %v, want the step-limit error", err)
	}
	roomy := mk(10_000_000)
	got, err := roomy.Query(src, QueryOptions{})
	if err != nil || len(got) == 0 {
		t.Fatalf("join under the default budget: %d items, err %v", len(got), err)
	}
	want, err := xq.MustCompile(src).EvalDoc(roomy.BuildView(Filter{}, Freshness{}))
	if err != nil || xq.Serialize(got) != xq.Serialize(want) {
		t.Errorf("join over the pinned tuple set: %d items, over BuildView %d (err %v)", len(got), len(want), err)
	}
}

// TestPlanInfoRoundTrip checks String/ParsePlanInfo are inverses.
func TestPlanInfoRoundTrip(t *testing.T) {
	infos := []PlanInfo{
		{Mode: "index", Index: "link"},
		{Mode: "index", Index: "type", Residual: 2},
		{Mode: "scan", Residual: 1},
		{Mode: "view"},
	}
	for _, in := range infos {
		if out := ParsePlanInfo(in.String()); out != in {
			t.Errorf("round trip %+v -> %q -> %+v", in, in.String(), out)
		}
	}
	if out := ParsePlanInfo(""); out.Mode != "view" {
		t.Errorf("absent header should parse as view, got %+v", out)
	}
	if out := ParsePlanInfo("garbage"); out.Mode != "view" {
		t.Errorf("unrecognized text should parse as view, got %+v", out)
	}
}

// TestQueryCacheCanonicalization checks that reformatted copies of one
// query share a compiled-cache slot while semantically distinct queries
// never collide.
func TestQueryCacheCanonicalization(t *testing.T) {
	clk := newFakeClock()
	r := newTestRegistry(clk, nil)
	variants := []string{
		`/tupleset/tuple[ @type = "service" ]`,
		`  /tupleset/tuple[ @type = "service" ]  `,
		"/tupleset/tuple[\n@type\t=  \"service\" ]",
		"/tupleset/tuple[ @type =\t\"service\"\n]",
	}
	for _, v := range variants {
		if _, err := r.Query(v, QueryOptions{}); err != nil {
			t.Fatalf("query %q: %v", v, err)
		}
	}
	// All four reformatted copies canonicalize to one key and must share
	// a single compiled-cache slot.
	r.cacheMu.RLock()
	n := len(r.queryCache)
	r.cacheMu.RUnlock()
	if n != 1 {
		t.Fatalf("cache holds %d entries for reformatted variants, want 1", n)
	}
	// Literal content is semantic: these must get distinct slots.
	if _, err := r.Query(`/tupleset/tuple[@type="other"]`, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	r.cacheMu.RLock()
	n2 := len(r.queryCache)
	r.cacheMu.RUnlock()
	if n2 != n+1 {
		t.Fatalf("distinct literal shared a cache slot: %d -> %d", n, n2)
	}
}

// canonicalCases pin the normalization rules: input and canonical form.
var canonicalCases = []struct{ in, want string }{
	{`/tupleset/tuple`, `/tupleset/tuple`},
	{"  /tupleset/tuple  ", `/tupleset/tuple`},
	{"/tupleset\n\t/tuple", `/tupleset /tuple`},
	{`/tupleset/tuple[@a="x  y"]`, `/tupleset/tuple[@a="x  y"]`}, // literal kept
	{"for  $t  in  /tupleset/tuple  return  $t", "for $t in /tupleset/tuple return $t"},
	// Direct element constructors are whitespace-sensitive raw text.
	{"<out>  spaced  </out>", "<out>  spaced  </out>"},
	{"1  <  2", "1 < 2"}, // '<' as operator still collapses
	// A comment may hold a quote that opens no literal.
	{`(: " :) "a  b"  (: " :)`, `(: " :) "a  b"  (: " :)`},
	{"0\f", "0\f"}, // whitespace the lexer rejects is not trimmed
}

// TestCanonicalQuerySource pins the normalization rules directly.
func TestCanonicalQuerySource(t *testing.T) {
	for _, tc := range canonicalCases {
		if got := canonicalQuerySource(tc.in); got != tc.want {
			t.Errorf("canonicalQuerySource(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
