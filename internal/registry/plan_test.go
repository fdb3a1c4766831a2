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

// planCorpus is the differential query corpus: every shape the planner
// claims to handle, plus a spread of shapes it must reject, all run
// against both engines and compared byte for byte.
var planCorpus = []string{
	// Plannable: pushdown-eligible discovery shapes.
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
	// Unplannable: must fall back to the interpreter, identically.
	`count(/tupleset/tuple)`,
	`string(/tupleset/@registry)`,
	`/tupleset/tuple[1]`,
	`/tupleset/tuple[@type!="service"]`,
	`/tupleset/tuple[number(content/service/attr[@name="load"]/@value) < 0.5]`,
	`for $t in /tupleset/tuple where $t/@owner="cms" return $t/@link`,
	`//service/@domain`,
}

// newPlanTestPair returns two identically populated registries, one with
// the pushdown planner and one that interprets every query.
func newPlanTestPair(t *testing.T, n int, seed int64) (planned, view *Registry) {
	t.Helper()
	clk := newFakeClock()
	planned = New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: clk.Now})
	view = New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: clk.Now, NoPlanner: true})
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	for _, i := range order {
		// Same index stream for both stores: content must be identical.
		tp := planTuple(i, rand.New(rand.NewSource(seed+int64(i))))
		for _, r := range []*Registry{planned, view} {
			if _, err := r.Publish(tp.Clone(), 0); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}
	return planned, view
}

// TestPlannerDifferential proves the planner is invisible: for every query
// in the corpus, the planned registry and the view-only registry return
// byte-identical serialized sequences and identical errors.
func TestPlannerDifferential(t *testing.T) {
	planned, view := newPlanTestPair(t, 60, 7)
	filters := []Filter{
		{},
		{Type: tuple.TypeService},
		{Context: "child"},
		{LinkPrefix: "http://cern.ch/"},
		{Type: "no-such-type"},
	}
	for _, f := range filters {
		for _, src := range planCorpus {
			got, gotErr := planned.Query(src, QueryOptions{Filter: f})
			want, wantErr := view.Query(src, QueryOptions{Filter: f})
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("filter %+v query %q: err %v vs %v", f, src, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if g, w := xq.Serialize(got), xq.Serialize(want); g != w {
				t.Errorf("filter %+v query %q:\nplanned: %s\nview:    %s", f, src, g, w)
			}
		}
	}
	st := planned.Stats()
	if st.PlanHits == 0 || st.PlanFallbacks == 0 {
		t.Fatalf("stats: hits=%d fallbacks=%d, want both > 0", st.PlanHits, st.PlanFallbacks)
	}
	if st := view.Stats(); st.PlanHits != 0 {
		t.Fatalf("NoPlanner registry recorded %d plan hits", st.PlanHits)
	}
}

// TestPlannerDifferentialEmit repeats the comparison in streaming mode,
// including the early-stop contract (Emit returning false).
func TestPlannerDifferentialEmit(t *testing.T) {
	planned, view := newPlanTestPair(t, 40, 11)
	collect := func(r *Registry, src string, stopAfter int) ([]string, xq.Sequence, error) {
		var items []string
		seq, err := r.Query(src, QueryOptions{Emit: func(it xq.Item) bool {
			items = append(items, xq.Serialize(xq.Sequence{it}))
			return stopAfter == 0 || len(items) < stopAfter
		}})
		return items, seq, err
	}
	for _, src := range planCorpus {
		for _, stopAfter := range []int{0, 1, 3} {
			gotItems, gotSeq, gotErr := collect(planned, src, stopAfter)
			wantItems, wantSeq, wantErr := collect(view, src, stopAfter)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("query %q stop %d: err %v vs %v", src, stopAfter, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if strings.Join(gotItems, "\n") != strings.Join(wantItems, "\n") {
				t.Errorf("query %q stop %d:\nplanned: %v\nview:    %v", src, stopAfter, gotItems, wantItems)
			}
			// Emit mode returns a nil sequence on both paths.
			if gotSeq != nil || wantSeq != nil {
				t.Errorf("query %q: emit mode returned non-nil sequence", src)
			}
		}
	}
}

// TestPlannerConcurrent hammers the plan cache and the per-revision shared
// elements from parallel planned and interpreted queries, buffered and
// streamed, racing live publishes; run under -race this checks execPlanFor's
// locking and that rendering a revision once is safe from any path.
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
	planned, _ := newPlanTestPair(t, 12, 3)
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

// TestStepBudgetCompiledPredicates pins what -max-query-steps bounds now
// that the interpreter runs predicates through the planner's closures: an
// interpreted evaluation is charged one step per node a compiled predicate
// is tested against (nested predicates included), so a predicated path over
// 1000 tuples trips a 1000-step budget and fits the daemon's default; a
// planned evaluation of the same query is not charged at all.
func TestStepBudgetCompiledPredicates(t *testing.T) {
	clk := newFakeClock()
	mk := func(maxSteps int, noPlanner bool) *Registry {
		r := New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: clk.Now,
			MaxQuerySteps: maxSteps, NoPlanner: noPlanner})
		for i := 0; i < 1000; i++ {
			if _, err := r.Publish(planTuple(i, rand.New(rand.NewSource(int64(i)))), 0); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	tight, roomy, planned := mk(1000, true), mk(10_000_000, true), mk(1000, false)
	q3 := `/tupleset/tuple/content/service[attr[@name="kind"]/@value="monitor"]`
	for _, src := range []string{
		q3,
		`/tupleset/tuple[content/service[interface[@type="XQuery"]]]/@link`, // nested predicates
		`//service[attr[@name="kind"]/@value="monitor"]`,                    // not a fused run
	} {
		if _, err := tight.Query(src, QueryOptions{}); err == nil || !strings.Contains(err.Error(), "exceeded 1000 steps") {
			t.Errorf("%s under 1000 steps: err %v, want the step-limit error", src, err)
		}
		want, err := roomy.Query(src, QueryOptions{})
		if err != nil || len(want) == 0 {
			t.Fatalf("%s under the default budget: %d items, err %v", src, len(want), err)
		}
		// Planned where plannable, and then uncharged; the descendant path
		// is interpreted on every registry and trips here too.
		got, err := planned.Query(src, QueryOptions{})
		if strings.HasPrefix(src, "//") {
			if err == nil {
				t.Errorf("%s: interpreted under 1000 steps without error", src)
			}
		} else if err != nil || xq.Serialize(got) != xq.Serialize(want) {
			t.Errorf("%s planned under 1000 steps: err %v, %d items, want %d", src, err, len(got), len(want))
		}
	}
	// The nested level is charged for itself: testing 1000 <service>
	// elements is 1000 steps, which a 1000-step budget allows; the <attr>
	// elements tested beneath each are what exceeds it.
	if _, err := tight.Query(`/tupleset/tuple/content/service[@domain="cern.ch"]`, QueryOptions{}); err != nil {
		t.Errorf("one predicate level over 1000 services under 1000 steps: %v", err)
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

// TestCanonicalQuerySource pins the normalization rules directly.
func TestCanonicalQuerySource(t *testing.T) {
	cases := []struct{ in, want string }{
		{`/tupleset/tuple`, `/tupleset/tuple`},
		{"  /tupleset/tuple  ", `/tupleset/tuple`},
		{"/tupleset\n\t/tuple", `/tupleset /tuple`},
		{`/tupleset/tuple[@a="x  y"]`, `/tupleset/tuple[@a="x  y"]`}, // literal kept
		{"for  $t  in  /tupleset/tuple  return  $t", "for $t in /tupleset/tuple return $t"},
		// Direct element constructors are whitespace-sensitive raw text.
		{"<out>  spaced  </out>", "<out>  spaced  </out>"},
		{"1  <  2", "1 < 2"}, // '<' as operator still collapses
	}
	for _, tc := range cases {
		if got := canonicalQuerySource(tc.in); got != tc.want {
			t.Errorf("canonicalQuerySource(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
