package registry

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// scanLinks are the identities TestScanMemoMatchesWalk publishes, refreshes
// and unpublishes; each starts with "http", so Filter{LinkPrefix: "http"}
// selects all of them and keeps a scan on the walk.
var scanLinks = func() []string {
	links := make([]string, 30)
	for i := range links {
		links[i] = fmt.Sprintf("http://%s/s%02d", memoDomains[i%len(memoDomains)], i)
	}
	return links
}()

// genScanHead returns a generated query with a tuple head that no index
// answers: predicates on the tuple step other than link, type or context
// equalities, and steps below it into the content.
func genScanHead(rng *rand.Rand) string {
	kind := func() string { return memoKinds[rng.Intn(len(memoKinds))] }
	dom := func() string { return memoDomains[rng.Intn(len(memoDomains))] }
	preds := []func() string{
		func() string { return "content" },
		func() string { return fmt.Sprintf(`content/service/@domain=%q`, dom()) },
		func() string { return fmt.Sprintf(`content/service/attr[@name="kind"]/@value=%q`, kind()) },
		func() string {
			return fmt.Sprintf(`number(content/service/attr[@name="load"]/@value) < 0.%d`, rng.Intn(10))
		},
		func() string { return fmt.Sprintf(`@owner!=%q`, []string{"cms", "atlas"}[rng.Intn(2)]) },
		func() string { return `@owner="cms" or @owner="atlas"` },
		func() string { return fmt.Sprintf(`@ts1!="%d"`, rng.Intn(3)) },
	}
	below := []func() string{
		func() string { return "" },
		func() string { return "/@link" },
		func() string { return "/content/service" },
		func() string { return fmt.Sprintf(`/content/service[@domain=%q]/@name`, dom()) },
		func() string { return fmt.Sprintf(`/content/service[attr[@name="kind"]/@value=%q]`, kind()) },
		func() string { return `/content/service/attr[@name="load"]/@value` },
		func() string {
			return fmt.Sprintf(`/content/service[number(attr[@name="diskGB"]/@value) >= %d]/@name`, 500*rng.Intn(5))
		},
	}
	src := "/tupleset/tuple"
	for n := rng.Intn(3); n > 0; n-- {
		src += "[" + preds[rng.Intn(len(preds))]() + "]"
	}
	return src + below[rng.Intn(len(below))]()
}

// walkHeads are scans that keep the walk however they are filtered: the
// bare first page, and a head whose owner equality the source checks on
// the tuple before handing a member over.
var walkHeads = []string{`/tupleset/tuple`, `/tupleset/tuple[@owner="cms"]/content/service`}

// TestScanMemoMatchesWalk is the differential of a scan read from the
// pinned set's memo: over generated journals of publications, refreshes and
// unpublications, every generated scan-shaped head answers, buffered,
// streamed and stopped after 1, 2 or 5 items, what the walked source (the
// same head under a link prefix every link has) and plain xq over
// BuildView give, with the same plan, from a cold memo, a warm one, one an
// advance carried, and past the memo's cap. Under a step budget the read
// fails exactly when the walk does, except that a list already held (warm
// or carried) may answer within less. The walkHeads never touch the memo.
func TestScanMemoMatchesWalk(t *testing.T) {
	states := map[string]int{}
	stops, budgets := map[int]int{}, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New(Config{Name: "r", DefaultTTL: time.Hour, MaxTTL: time.Hour, Now: newFakeClock().Now})
		mutate := func() {
			link := scanLinks[rng.Intn(len(scanLinks))]
			if rng.Intn(4) == 0 {
				r.Unpublish(link)
				return
			}
			tp := &tuple.Tuple{Link: link, Type: tuple.TypeService, Context: "child",
				Owner: []string{"cms", "atlas", "alice"}[rng.Intn(3)], Content: memoContent(rng)}
			if rng.Intn(6) == 0 {
				tp.Content = nil
			}
			if _, err := r.Publish(tp, 0); err != nil {
				t.Fatal(err)
			}
		}
		for range 20 {
			mutate()
		}
		seen, lastRead := map[string]bool{}, map[string]*tupleSet{}
		heads := walkHeads[:len(walkHeads):len(walkHeads)]
		for len(heads) < 60 {
			src := genScanHead(rng)
			if _, head := xq.MustCompile(src).TupleHead(); head && !seen[src] { // two number() tests have none
				seen[src] = true
				heads = append(heads, src)
			}
		}
		for round := 0; round < 60; round++ {
			for n := rng.Intn(3); n > 0; n-- {
				mutate()
			}
			picked := heads[:0:0]
			if round%15 == 14 {
				picked = append(picked, heads...) // more heads than the memo holds
			} else {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					hot := len(walkHeads) + 6 // read most rounds, so advances carry them
					if rng.Intn(2) == 0 {
						hot = len(heads)
					}
					picked = append(picked, heads[rng.Intn(hot)])
				}
			}
			for _, src := range picked {
				at := fmt.Sprintf("seed %d round %d: %s", seed, round, src)
				stop := []int{0, 1, 2, 5}[rng.Intn(4)]
				state, budgeted := checkScanRead(t, at, r, rng, lastRead, src, stop)
				states[state]++
				stops[stop]++
				if budgeted {
					budgets++
				}
			}
		}
	}
	t.Logf("reads by memo state: %v", states)
	for _, s := range []string{"cold", "warm", "carried", "past the cap", "walked"} {
		if states[s] < 20 {
			t.Errorf("%d reads %s: the test exercises too little (%v)", states[s], s, states)
		}
	}
	for _, k := range []int{1, 2, 5} {
		if stops[k] < 50 {
			t.Errorf("%d reads stopped after %d items: too few", stops[k], k)
		}
	}
	if budgets < 100 {
		t.Errorf("%d reads under a step budget: too few", budgets)
	}
}

// checkScanRead runs src once through QueryCompiled with no filter, where
// a scan with work below the tuple step reads the memo, buffered (then
// sometimes under a step budget at or one below what the walk needs) or
// streamed and stopped after stop items, and holds it to the walked
// source and to BuildView. It returns the memo's state as the read found
// it, and whether it ran under a budget; lastRead holds the set each head
// was last read from.
func checkScanRead(t *testing.T, at string, r *Registry, rng *rand.Rand, lastRead map[string]*tupleSet, src string, stop int) (state string, budgeted bool) {
	t.Helper()
	q := xq.MustCompile(src)
	view := r.BuildView(Filter{}, Freshness{})
	want, err := q.Eval(&xq.Options{Context: view})
	if err != nil {
		t.Fatalf("%s: over BuildView: %v", at, err)
	}
	walks := slices.Contains(walkHeads, src)
	need := docSteps(t, at, q, view)
	budget := 0
	if need > 1 && !walks && stop == 0 && rng.Intn(2) == 0 { // a walk that stops early needs less
		budget, budgeted = need-rng.Intn(2), true
	}
	defer func(steps int) { r.cfg.MaxQuerySteps = steps }(r.cfg.MaxQuerySteps)

	read := func(f Filter) (xq.Sequence, PlanInfo, error) {
		var plan PlanInfo
		opts := QueryOptions{Filter: f, Explain: &plan}
		var items xq.Sequence
		if stop > 0 {
			opts.Emit = func(it xq.Item) bool { items = append(items, it); return len(items) < stop }
		}
		seq, err := r.QueryCompiled(q, opts)
		if stop > 0 {
			seq = items
		}
		return seq, plan, err
	}
	r.cfg.MaxQuerySteps = budget
	before := r.Stats()
	got, plan, gotErr := read(Filter{})
	after := r.Stats()
	walked, walkPlan, walkErr := read(Filter{LinkPrefix: "http"})

	hits, builds := after.MemoHits-before.MemoHits, after.MemoBuilds-before.MemoBuilds
	set := r.viewFor(Filter{}).cur.Load()
	advanced := lastRead[src] != set // a hit then reads what an advance carried
	lastRead[src] = set
	switch {
	case walks:
		state = "walked"
		if hits+builds > 0 {
			t.Fatalf("%s: a walked scan read the memo (%d hits, %d builds)", at, hits, builds)
		}
	case builds > 0:
		state = "cold"
	case hits > 0 && advanced:
		state = "carried"
	case hits > 0:
		state = "warm"
	case gotErr == nil:
		state = "past the cap"
	default:
		state = "failed"
	}
	if plan.Mode != "scan" || plan != walkPlan {
		t.Fatalf("%s: plan %v, walked %v", at, plan, walkPlan)
	}
	if (walkErr != nil) != (budget > 0 && budget < need) {
		t.Fatalf("%s: walked under %d of %d steps: err %v", at, budget, need, walkErr)
	}
	switch held := state == "warm" || state == "carried"; {
	case walkErr == nil && gotErr != nil:
		t.Fatalf("%s (%s): read failed under %d steps, which the walk needs: %v", at, state, budget, gotErr)
	case gotErr != nil && !strings.Contains(gotErr.Error(), "exceeded"):
		t.Fatalf("%s (%s): %v", at, state, gotErr)
	case walkErr != nil && gotErr == nil && !held:
		t.Fatalf("%s (%s): read answered under %d steps, fewer than the walk needs (%d)", at, state, budget, need)
	}
	if gotErr != nil {
		return state, budgeted
	}
	n := len(want)
	if stop > 0 {
		n = min(n, stop)
	}
	if xq.Serialize(got) != xq.Serialize(want[:n]) {
		t.Fatalf("%s (%s, stop %d):\nmemo      %s\nBuildView %s", at, state, stop, xq.Serialize(got), xq.Serialize(want[:n]))
	}
	if walkErr == nil && xq.Serialize(walked) != xq.Serialize(got) {
		t.Fatalf("%s (%s, stop %d):\nmemo   %s\nwalked %s", at, state, stop, xq.Serialize(got), xq.Serialize(walked))
	}
	return state, budgeted
}

// docSteps returns the fewest steps q needs over doc with no memo: what the
// walked source is charged too.
func docSteps(t *testing.T, at string, q *xq.Query, doc *xmldoc.Node) int {
	t.Helper()
	lo, hi := 1, 1<<20
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := q.Eval(&xq.Options{Context: doc, MaxSteps: mid}); err == nil {
			hi = mid
		} else if strings.Contains(err.Error(), "exceeded") {
			lo = mid + 1
		} else {
			t.Fatalf("%s: %v", at, err)
		}
	}
	return lo
}
