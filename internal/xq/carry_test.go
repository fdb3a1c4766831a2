package xq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"wsda/internal/xmldoc"
)

// carryQueries read a modeled tuple set the way discovery queries do: node
// lists with and without predicates on the member step, one or several
// nodes per member, literal probes (list and index in one walk), probes
// keyed by a variable (the index built over a memoised list), a rel with
// several leaves per node, and three sets Carry must leave alone: a root
// attribute, a predicate on the document element, and the rank map.
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
// its memo against the reference evaluation. After every carry each set it
// installed must equal, cost and segments included, what evaluating the
// same queries with a fresh memo installs over the new set, and come from a
// query evaluated in the generation before.
func TestCarryMatchesColdBuild(t *testing.T) {
	queries := make([]*Query, len(carryQueries))
	for i, src := range carryQueries {
		queries[i] = MustCompile(src)
	}
	carries, walked, moved := 0, 0, 0
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
			var read []*Query
			for i, q := range queries {
				if m.rng.Intn(2) == 0 {
					continue
				}
				read = append(read, q)
				want, wantErr := MustCompileGeneral(carryQueries[i]).EvalDoc(doc)
				got, err := q.Eval(&Options{Context: doc, Memo: memo})
				if (err == nil) != (wantErr == nil) || Serialize(got) != Serialize(want) {
					t.Fatalf("seed %d gen %d: %s: %s (err %v), reference %s (err %v)", seed, gen, carryQueries[i], Serialize(got), err, Serialize(want), wantErr)
				}
			}
			overflow := false
			for n := 1 + m.rng.Intn(2); n > 0; n-- {
				overflow = m.step() || overflow
			}
			next := m.members()
			nextDoc, nextMemo := tupleSetDoc(next), &Memo{}
			if !overflow {
				from := positions(kids, next)
				carries += nextMemo.Carry(nextDoc, memo, func() []int32 { return from })
				for _, j := range from {
					if j < 0 {
						walked++
					}
				}
				if len(next) != len(kids) || slices.ContainsFunc(from, func(j int32) bool { return j < 0 }) {
					moved++
				}
				checkCarried(t, fmt.Sprintf("seed %d gen %d", seed, gen), nextMemo, nextDoc, read)
			}
			kids, doc, memo = next, nextDoc, nextMemo
		}
	}
	if carries < 2000 || walked < 200 || moved < 400 {
		t.Fatalf("%d sets carried, %d members walked, %d carries that moved members: the test exercises too little", carries, walked, moved)
	}
}

// checkCarried holds each set in carried, a memo just filled by Carry, to
// the same set in a fresh memo over doc after evaluating read.
func checkCarried(t *testing.T, at string, carried *Memo, doc *xmldoc.Node, read []*Query) {
	t.Helper()
	cold := &Memo{}
	for _, q := range read {
		if _, err := q.Eval(&Options{Context: doc, Memo: cold}); err != nil {
			t.Fatalf("%s: %s: %v", at, q.Source(), err)
		}
	}
	for k, set := range carried.sets {
		if set.read {
			t.Fatalf("%s: carried %q is marked read", at, k.path)
		}
		if k.root != doc {
			t.Fatalf("%s: carried %q is keyed by another document", at, k.path)
		}
		want, ok := cold.sets[k]
		if !ok && set.index != nil && len(set.nodes) == 0 {
			continue // a probe of an empty list installs no index
		}
		if !ok {
			t.Fatalf("%s: carried %q, which no query of the last generation reads", at, k.path)
		}
		if err := sameSet(set, want); err != nil {
			t.Fatalf("%s: carried %q: %v", at, k.path, err)
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
	case string(memoText(nil, got.rel)) != string(memoText(nil, want.rel)):
		return fmt.Errorf("rel %s, cold %s", memoText(nil, got.rel), memoText(nil, want.rel))
	case !slices.Equal(got.segs.of, want.segs.of):
		return fmt.Errorf("segments %v, cold %v", got.segs.of, want.segs.of)
	case string(memoText(nil, got.segs.steps)) != string(memoText(nil, want.segs.steps)):
		return fmt.Errorf("walk %s, cold %s", memoText(nil, got.segs.steps), memoText(nil, want.segs.steps))
	}
	return nil
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
	kids := m.members()
	doc, memo := tupleSetDoc(kids), &Memo{}
	for i, src := range carryQueries {
		queries[i] = MustCompile(src)
		ref, _ := MustCompileGeneral(src).EvalDoc(doc)
		want[i] = Serialize(ref)
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
				if got, err := queries[i].Eval(&Options{Context: doc, Memo: memo}); err != nil || Serialize(got) != want[i] {
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
