package xq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"wsda/internal/xmldoc"
)

// carryQueries read a modeled tuple set the way discovery queries do: node
// lists with and without predicates on the member step, one or several
// nodes per member, literal probes (list and index in one walk), probes
// keyed by a variable (the index built over a memoised list), a rel with
// several leaves per node, and three sets Carry must leave alone: a root
// attribute, a predicate on the document element, and the rank map. The
// FLWORs read number() of a member's disk or load attribute, which may be
// missing (NaN), not a number (NaN), tied, or doubled (number() raises; a
// load is doubled often, a disk rarely), in where conjuncts, order-by keys
// in both directions with empty least and greatest, a conjunct reached only
// when the one before it holds, and a second pass over the same list.
var carryQueries = []string{
	`count(/tupleset/tuple/content/service)`,
	`count(/tupleset/tuple/content/service[attr[@name="kind"]/@value="se"])`,
	`/tupleset/tuple/content/service[attr[@name="kind"]/@value="ce"]/@name`,
	`for $d in ("a", "b") return count(/tupleset/tuple/content/service[@domain = $d])`,
	`count(/tupleset/*/content/service/attr[@name="load"])`,
	`count(/tupleset/tuple[@type="service"]/content/service[attr/@name])`,
	`count(/tupleset/tuple/content/service[attr/@value = "0.5"])`,
	`/tupleset/tuple/content/service[attr[@name="load"]]/@name`,
	`for $s in /tupleset/tuple/content/service[@domain="c"] return $s/../../@link`,
	`string(/tupleset/@registry)`,
	`count(/tupleset[@registry]/tuple/content/service)`,
	`for $s in /tupleset/tuple/content/service where number($s/attr[@name="disk"]/@value) > 1 order by number($s/attr[@name="disk"]/@value) descending return $s/@name`,
	`for $s in /tupleset/tuple/content/service[@domain="a"] order by number($s/attr[@name="disk"]/@value) empty greatest return string($s/@name)`,
	`for $s in /tupleset/tuple/content/service order by number($s/attr[@name="disk"]/@value) descending empty least, $s/@name return $s/@name`,
	`for $s in /tupleset/tuple/content/service where $s/@domain = "b" and number($s/attr[@name="disk"]/@value) <= 2 return $s/@name`,
	`for $d in ("a", "c"), $s in /tupleset/tuple/content/service where number($s/attr[@name="disk"]/@value) != 2 return concat($d, $s/@name)`,
	`count(for $s in /tupleset/tuple/content/service[@domain="c"] where number($s/attr[@name="load"]/@value) < 0.5 return $s)`,
}

// carryModel is a registry's tuple set reduced to what Carry sees: members
// in link order, each a shared <tuple> element that a refresh replaces.
type carryModel struct {
	rng     *rand.Rand
	links   []string                // the link universe
	live    map[string]*xmldoc.Node // link -> its current element
	service bool                    // the set holds type="service" members only
}

// element renders one tuple revision as the registry would: parentless and
// numbered within its own subtree. Some have no content.
func (m *carryModel) element(link string) *xmldoc.Node {
	typ := []string{"service", "node"}[m.rng.Intn(2)]
	body := ""
	if m.rng.Intn(5) > 0 {
		body = fmt.Sprintf(`<content><service name="s%d" domain=%q><attr name="kind" value=%q/>`,
			m.rng.Intn(50), []string{"a", "b", "c"}[m.rng.Intn(3)], []string{"se", "ce", "js"}[m.rng.Intn(3)])
		for n := m.rng.Intn(3); n > 0; n-- {
			body += fmt.Sprintf(`<attr name="load" value="0.%d"/>`, m.rng.Intn(10))
		}
		for n := min(m.rng.Intn(40), 2); n > 0; n-- { // none in 40, two in 40, else one
			body += fmt.Sprintf(`<attr name="disk" value=%q/>`, []string{"1", "2", "3", "x"}[m.rng.Intn(4)])
		}
		body += `</service></content>`
	}
	el := xmldoc.MustParse(fmt.Sprintf(`<tuple link=%q type=%q>%s</tuple>`, link, typ, body)).DocumentElement().Clone()
	el.Renumber()
	return el
}

// members lists the set's members in link order.
func (m *carryModel) members() []*xmldoc.Node {
	var kids []*xmldoc.Node
	for _, l := range m.links {
		if el := m.live[l]; el != nil {
			if typ, _ := el.Attr("type"); !m.service || typ == "service" {
				kids = append(kids, el)
			}
		}
	}
	return kids
}

// step applies one random mutation: a refresh (a new element, its type
// possibly flipped in and out of a filtered set), a new link, an
// unpublication, or the expiry of several members. It reports whether the
// step overflows the journal instead: the next set is then read in full and
// nothing is carried. A Touch changes no member and so is the empty step.
func (m *carryModel) step() (overflow bool) {
	link := m.links[m.rng.Intn(len(m.links))]
	switch op := m.rng.Intn(12); {
	case op < 5:
		m.live[link] = m.element(link)
	case op < 8:
		delete(m.live, link)
	case op < 10:
		for n := 1 + m.rng.Intn(3); n > 0; n-- {
			delete(m.live, m.links[m.rng.Intn(len(m.links))])
		}
	case op == 10: // a Touch
	default:
		return true
	}
	return false
}

// tupleSetDoc publishes members as the registry does.
func tupleSetDoc(kids []*xmldoc.Node) *xmldoc.Node {
	root := xmldoc.NewElement("tupleset")
	root.SetAttr("registry", "r")
	doc := xmldoc.NewDocument()
	doc.AppendChild(root)
	doc.Renumber()
	root.Children = kids
	return doc
}

// positions maps each member of next to its position in prev, -1 for one
// prev does not hold: what the registry hands Carry.
func positions(prev, next []*xmldoc.Node) []int32 {
	at := make(map[*xmldoc.Node]int32, len(prev))
	for i, el := range prev {
		at[el] = int32(i)
	}
	from := make([]int32, len(next))
	for i, el := range next {
		if j, ok := at[el]; ok {
			from[i] = j
		} else {
			from[i] = -1
		}
	}
	return from
}

// TestCarryMatchesColdBuild is Carry's generated differential. A modeled
// tuple set, unfiltered and filtered by type, goes through random
// refreshes, new links, unpublications, expiries, Touches and journal
// overflows; each generation evaluates a random subset of carryQueries over
// its memo against the reference evaluation, and every tenth holds the
// steps of each FLWOR that does not raise to warm <= cold <= reference,
// warm over the carried memo. Every carry keeps exactly the sets whose
// carries since they were last read, this one included, cost at most their
// price, and drops the others; a set it keeps equals, cost and segments
// included, what evaluating every query with a fresh memo installs over
// the new set, and a key column no fresh evaluation completes holds
// number() of each node of its list.
func TestCarryMatchesColdBuild(t *testing.T) {
	queries := make([]*Query, len(carryQueries))
	for i, src := range carryQueries {
		queries[i] = MustCompile(src)
	}
	var total carryTally
	for seed := int64(1); seed <= 4; seed++ {
		m := &carryModel{rng: rand.New(rand.NewSource(seed)), live: map[string]*xmldoc.Node{}, service: seed%2 == 0}
		for i := 0; i < 30; i++ {
			m.links = append(m.links, fmt.Sprintf("http://h%d.org/svc-%02d", i%3, i))
		}
		sort.Strings(m.links)
		for _, l := range m.links[:20] {
			m.live[l] = m.element(l)
		}
		kids := m.members()
		doc, memo := tupleSetDoc(kids), &Memo{}
		for gen := 0; gen < 300; gen++ {
			at := fmt.Sprintf("seed %d gen %d", seed, gen)
			for i, q := range queries {
				if m.rng.Intn(2) == 0 {
					continue
				}
				want, wantErr := MustCompileGeneral(carryQueries[i]).EvalDoc(doc)
				got, err := q.Eval(&Options{Context: doc, Memo: memo})
				if (err == nil) != (wantErr == nil) || Serialize(got) != Serialize(want) {
					t.Fatalf("%s: %s: %s (err %v), reference %s (err %v)", at, carryQueries[i], Serialize(got), err, Serialize(want), wantErr)
				}
			}
			if gen%10 == 0 {
				checkColumnSteps(t, at, queries, doc, memo)
			}
			overflow := false
			for n := 1 + m.rng.Intn(2); n > 0; n-- {
				overflow = m.step() || overflow
			}
			next := m.members()
			nextDoc, nextMemo := tupleSetDoc(next), &Memo{}
			if !overflow {
				from := positions(kids, next)
				before := snapshot(memo)
				n, dropped := nextMemo.Carry(nextDoc, memo, func() []int32 { return from })
				total.add(checkCarryRule(t, at, before, nextMemo, nextDoc, dropped))
				total.carries += n
				for _, j := range from {
					if j < 0 {
						total.walked++
					}
				}
				if len(next) != len(kids) || slices.ContainsFunc(from, func(j int32) bool { return j < 0 }) {
					total.moved++
				}
				checkCarried(t, at, nextMemo, nextDoc, queries)
			}
			kids, doc, memo = next, nextDoc, nextMemo
		}
	}
	if total.carries < 2000 || total.walked < 200 || total.moved < 400 || total.columns < 300 ||
		total.unread < 2000 || total.drops < 50 || total.raised < 20 {
		t.Fatalf("%+v: the test exercises too little", total)
	}
}

// carryTally counts what TestCarryMatchesColdBuild exercised: sets carried,
// members walked, carries that moved members, key columns carried, sets
// carried unread, sets dropped, and key columns a new member's raise kept
// from being carried.
type carryTally struct{ carries, walked, moved, columns, unread, drops, raised int }

func (c *carryTally) add(d carryTally) {
	c.columns, c.unread, c.drops, c.raised = c.columns+d.columns, c.unread+d.unread, c.drops+d.drops, c.raised+d.raised
}

// heldSet is a set of a memo as it stood before a carry.
type heldSet struct {
	set         *nodeSet
	idle        int
	spent       int
	size, price int
}

// snapshot records m's member-split sets, with what the cost rule reads of
// them: the copy a carry makes, one per node of the list, and the least a
// build makes (every member, every node, every step charged, and an
// index's or column's entries again).
func snapshot(m *Memo) map[string]heldSet {
	held := map[string]heldSet{}
	for k, set := range m.sets {
		if set.segs == nil {
			continue
		}
		h := heldSet{set: set, idle: set.idle, spent: set.spent, size: len(set.nodes)}
		h.price = len(set.segs.of) - 1 + len(set.nodes) + set.cost
		if set.index != nil || set.cells != nil {
			h.price += h.size
		}
		held[k.path] = h
	}
	return held
}

// checkCarryRule holds a carry to the cost rule: a set of before whose
// carries since it was last read, this one included, cost at most its
// price is carried with that spend, unless it is a key column over a new
// member whose number() raises; every other one is dropped.
func checkCarryRule(t *testing.T, at string, before map[string]heldSet, carried *Memo, doc *xmldoc.Node, dropped int) (tally carryTally) {
	t.Helper()
	for path, h := range before {
		spend := h.size
		if h.idle > 0 {
			spend += h.spent
		}
		got := carried.sets[setKey{path, doc}]
		switch {
		case spend > h.price:
			tally.drops++
			if got != nil {
				t.Fatalf("%s: %q carried, though carrying it unread costs %d, over its price %d", at, path, spend, h.price)
			}
		case got == nil && h.set.cells != nil && columnRaises(h.set, doc):
			tally.raised++
		case got == nil:
			t.Fatalf("%s: %q dropped, though carrying it costs %d of its price %d (idle %d)", at, path, spend, h.price, h.idle)
		case got.spent != spend || got.idle != h.idle+1:
			t.Fatalf("%s: %q carried with %d spent (idle %d), want %d spent, idle %d", at, path, got.spent, got.idle, spend, h.idle+1)
		default:
			if h.idle > 0 {
				tally.unread++
			}
			if got.cells != nil {
				tally.columns++
			}
		}
	}
	if dropped != tally.drops {
		t.Fatalf("%s: Carry reports %d dropped, the rule drops %d", at, dropped, tally.drops)
	}
	return tally
}

// columnRaises reports whether number() of col's rel raises on a node its
// list's walk reaches in doc.
func columnRaises(col *nodeSet, doc *xmldoc.Node) bool {
	var list meter
	raised := false
	walkPlan(doc, col.segs.steps, &list, func(n *xmldoc.Node) bool {
		var m meter
		numOf(n, col.rel, &m)
		raised = m.fault != nil
		return !raised
	})
	return raised
}

// checkCarried holds each set in carried, a memo just filled by Carry, to
// the same set in a fresh memo over doc after evaluating queries, and a key
// column no fresh evaluation completes to number() of each of its nodes.
func checkCarried(t *testing.T, at string, carried *Memo, doc *xmldoc.Node, queries []*Query) {
	t.Helper()
	cold := &Memo{}
	for _, q := range queries {
		_, _ = q.Eval(&Options{Context: doc, Memo: cold}) // some raise: what they installed before stays
	}
	for k, set := range carried.sets {
		if k.root != doc {
			t.Fatalf("%s: carried %q is keyed by another document", at, k.path)
		}
		want, ok := cold.sets[k]
		switch {
		case !ok && set.index != nil && len(set.nodes) == 0:
			continue // a probe of an empty list installs no index
		case !ok && set.cells != nil:
			want = &nodeSet{nodes: set.nodes, rel: set.rel, segs: set.segs, cells: []keyCell{}}
			for _, n := range set.nodes {
				var m meter
				want.cells = append(want.cells, keyCell{numOf(n.(*xmldoc.Node), set.rel, &m), int32(m.steps)})
				want.cost += m.steps
			}
		case !ok:
			t.Fatalf("%s: carried %q, which no query builds over the new set", at, k.path)
		}
		if err := sameSet(set, want); err != nil {
			t.Fatalf("%s: carried %q: %v", at, k.path, err)
		}
	}
}

// checkColumnSteps holds the steps of each FLWOR of queries that does not
// raise over doc to warm <= cold <= reference, warm over memo.
func checkColumnSteps(t *testing.T, at string, queries []*Query, doc *xmldoc.Node, memo *Memo) {
	t.Helper()
	for _, q := range queries {
		if _, isFLWOR := q.expr.(*flworExpr); !isFLWOR {
			continue
		}
		if _, err := MustCompileGeneral(q.Source()).EvalDoc(doc); err != nil {
			continue
		}
		ref := stepsUsed(t, MustCompileGeneral(q.Source()), doc)
		cold := stepsWithin(t, q, doc, ref, func() *Memo { return &Memo{} })
		warm := stepsWithin(t, q, doc, cold, func() *Memo { return memo })
		if cold > ref || warm > cold {
			t.Fatalf("%s: %s takes %d steps warm, %d cold, %d in the reference", at, q.Source(), warm, cold, ref)
		}
	}
}

// sameSet reports how a carried set differs from a cold build.
func sameSet(got, want *nodeSet) error {
	switch {
	case want.segs == nil || want.ranks != nil:
		return fmt.Errorf("a set that does not split by member")
	case !slices.Equal(got.nodes, want.nodes):
		return fmt.Errorf("nodes %s, cold %s", Serialize(got.nodes), Serialize(want.nodes))
	case got.cost != want.cost:
		return fmt.Errorf("cost %d, cold %d", got.cost, want.cost)
	case !reflect.DeepEqual(got.index, want.index):
		return fmt.Errorf("index %v, cold %v", got.index, want.index)
	case !slices.EqualFunc(got.cells, want.cells, func(a, b keyCell) bool {
		return a.steps == b.steps && (a.val == b.val || a.val != a.val && b.val != b.val)
	}) || (got.cells == nil) != (want.cells == nil):
		return fmt.Errorf("cells %v, cold %v", got.cells, want.cells)
	case string(memoText(nil, got.rel)) != string(memoText(nil, want.rel)):
		return fmt.Errorf("rel %s, cold %s", memoText(nil, got.rel), memoText(nil, want.rel))
	case !slices.Equal(got.segs.of, want.segs.of):
		return fmt.Errorf("segments %v, cold %v", got.segs.of, want.segs.of)
	case string(memoText(nil, got.segs.steps)) != string(memoText(nil, want.segs.steps)):
		return fmt.Errorf("walk %s, cold %s", memoText(nil, got.segs.steps), memoText(nil, want.segs.steps))
	}
	return nil
}

// TestFullMemoMakesRoom rotates far more distinct node lists than memoCap
// through a shared memo across advances, four new ones a generation, each
// read once. Carried unread, each would outlive many generations (it copies
// next to nothing while its walk reads every member), so the memo fills;
// a build then drops the set unread for the most advances instead of
// keeping itself private, and a query read every generation, carried
// unread into each until it runs, still hits its list.
func TestFullMemoMakesRoom(t *testing.T) {
	m := &carryModel{rng: rand.New(rand.NewSource(11)), live: map[string]*xmldoc.Node{}}
	for i := 0; i < 40; i++ {
		l := fmt.Sprintf("http://h.org/svc-%02d", i)
		m.links, m.live[l] = append(m.links, l), m.element(l)
	}
	const returning = `count(/tupleset/tuple/content/service[attr[@name="kind"]/@value="se"])`
	back := MustCompile(returning)
	kids := m.members()
	doc, memo := tupleSetDoc(kids), &Memo{}
	var rotation MemoCounts
	for gen := 0; gen < 60; gen++ {
		for i := 0; i < 4; i++ {
			q := MustCompile(fmt.Sprintf(`count(/tupleset/tuple/content/service[@name="s%d-%d"])`, gen, i))
			if _, err := q.Eval(&Options{Context: doc, Memo: memo, MemoCounts: &rotation}); err != nil {
				t.Fatal(err)
			}
		}
		var counts MemoCounts
		got, err := back.Eval(&Options{Context: doc, Memo: memo, MemoCounts: &counts})
		want, _ := MustCompileGeneral(returning).EvalDoc(doc)
		if err != nil || Serialize(got) != Serialize(want) {
			t.Fatalf("gen %d: %s (err %v), reference %s", gen, Serialize(got), err, Serialize(want))
		}
		if gen > 0 && counts.Hits == 0 {
			t.Fatalf("gen %d: the returning query built its list again (%+v)", gen, counts)
		}
		link := m.links[m.rng.Intn(len(m.links))]
		m.live[link] = m.element(link)
		next := m.members()
		nextDoc, nextMemo := tupleSetDoc(next), &Memo{}
		nextMemo.Carry(nextDoc, memo, func() []int32 { return positions(kids, next) })
		kids, doc, memo = next, nextDoc, nextMemo
	}
	if rotation.Overflows > 0 || rotation.Drops < 200 {
		t.Fatalf("rotation %+v: a full memo kept builds private instead of dropping stale sets", rotation)
	}
}

// TestCarryBesideReaders carries a memo while 8 goroutines still evaluate
// over the set it succeeds, hitting its sets and installing new ones (run
// under -race): what Carry installs still equals a cold build, and the
// readers' answers stay the reference's.
func TestCarryBesideReaders(t *testing.T) {
	m := &carryModel{rng: rand.New(rand.NewSource(7)), live: map[string]*xmldoc.Node{}}
	for i := 0; i < 40; i++ {
		l := fmt.Sprintf("http://h.org/svc-%02d", i)
		m.links, m.live[l] = append(m.links, l), m.element(l)
	}
	queries := make([]*Query, len(carryQueries))
	want := make([]string, len(carryQueries))
	raises := make([]bool, len(carryQueries))
	kids := m.members()
	doc, memo := tupleSetDoc(kids), &Memo{}
	for i, src := range carryQueries {
		queries[i] = MustCompile(src)
		ref, err := MustCompileGeneral(src).EvalDoc(doc)
		want[i], raises[i] = Serialize(ref), err != nil
	}
	for _, q := range queries[:3] {
		if _, err := q.Eval(&Options{Context: doc, Memo: memo}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(queries)
				if got, err := queries[i].Eval(&Options{Context: doc, Memo: memo}); (err != nil) != raises[i] || Serialize(got) != want[i] {
					t.Errorf("%s beside a carry: %s (err %v), reference %s", carryQueries[i], Serialize(got), err, want[i])
				}
			}
		}(g)
	}
	for r := 0; r < 20; r++ {
		m.step()
		next := m.members()
		nextDoc, nextMemo := tupleSetDoc(next), &Memo{}
		nextMemo.Carry(nextDoc, memo, func() []int32 { return positions(kids, next) })
		checkCarried(t, fmt.Sprintf("carry %d", r), nextMemo, nextDoc, queries)
	}
	wg.Wait()
}

// TestKeyColumnFollowsEvaluation: a FLWOR streamed unordered over a
// memoised list fills its key column as it evaluates the bindings, so its
// first item leaves within the steps of the first binding, where reading
// the whole column first would take the steps of all 200; a consumer that
// stops there leaves no column in the memo. A pass that runs to the end
// installs it, and a later one reads it, charged the same steps.
func TestKeyColumnFollowsEvaluation(t *testing.T) {
	src := `<r>`
	for i := 0; i < 200; i++ {
		src += fmt.Sprintf(`<a><b k="0"/><b x="" k="%d"/><b k="1"/></a>`, i%7)
	}
	doc := xmldoc.MustParse(src + `</r>`)
	q := MustCompile(`for $a in /r/a where number($a/b[@x]/@k) >= 0 return $a/b[@x]/@k`)
	columns := func(m *Memo) (n int) {
		for k := range m.sets {
			if strings.Contains(k.path, "number(") {
				n++
			}
		}
		return n
	}
	memo := &Memo{}
	var first Sequence
	if _, err := q.Eval(&Options{Context: doc, Memo: memo, MaxSteps: 20, Emit: func(it Item) bool {
		first = append(first, it)
		return false
	}}); err != nil || Serialize(first) != `k="0"` {
		t.Fatalf("first item %s, err %v", Serialize(first), err)
	}
	if n := columns(memo); n != 0 {
		t.Fatalf("a stream stopped after its first item installed %d key columns", n)
	}
	want := stepsUsed(t, MustCompileGeneral(q.Source()), doc)
	for pass := 0; pass < 2; pass++ {
		counts := &MemoCounts{}
		if _, err := q.Eval(&Options{Context: doc, Memo: memo, MemoCounts: counts}); err != nil {
			t.Fatal(err)
		}
		if n := columns(memo); n != 1 || counts.Builds+counts.Hits != 2 || (pass == 1) != (counts.Hits == 2) {
			t.Fatalf("pass %d: %d key columns, memo counts %+v", pass, n, *counts)
		}
		if got := stepsWithin(t, q, doc, want, func() *Memo { return memo }); got != want {
			t.Fatalf("pass %d: %d steps over the memo, %d in the reference", pass, got, want)
		}
	}
}
