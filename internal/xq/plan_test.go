package xq

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wsda/internal/xmldoc"
)

// mustHead compiles src, which must have a tuple head, and returns the head
// and the compiled steps from tuple on.
func mustHead(t *testing.T, src string) (TupleHead, []pathStep) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	h, ok := q.TupleHead()
	if !ok {
		t.Fatalf("expected %q to have a tuple head", src)
	}
	return h, q.expr.(*pathExpr).steps[1:]
}

func TestTupleHeadShapes(t *testing.T) {
	accepted := []string{
		`/tupleset/tuple`,
		`/tupleset/tuple[@link="http://a/b"]`,
		`/tupleset/tuple[@type="service"][@ctx="child"]`,
		`/tupleset/tuple[@type="service" and @owner="cms"]`,
		`/tupleset/tuple[@type="service" or @ctx="child"]`,
		`/tupleset/tuple[@ctx=""]`,
		`/tupleset/tuple[content]`,
		`/tupleset/tuple[content/service/@domain="cern.ch"]`,
		`/tupleset/tuple[@type="service"]/@link`,
		`/tupleset/tuple/@*`,
		`/tupleset/tuple/content/service[@domain="cern.ch"]`,
		`/tupleset/tuple/content/service[attr[@name="kind"]/@value="replica-catalog"]`,
		`/tupleset/tuple/content/service[interface[@type="XQuery"]/operation/bind/@protocol="http"]`,
		`/tupleset/tuple/content/service[@load=0.25]`,
		`/tupleset/tuple["x"=@type]`, // literal on the left
		`/tupleset/tuple[@type!="x"]`,
		`/tupleset/tuple[@year>2000]`,
		`/tupleset/tuple[2000 <= @year or @year < "1"]`,
		`/tupleset/tuple/content/service[@owner="cms"][number(attr[@name="load"]/@value) < 0.5]`, // Q4
	}
	for _, src := range accepted {
		mustHead(t, src)
	}

	rejected := []string{
		`count(/tupleset/tuple)`,                          // function call root
		`string(/tupleset/@registry)`,                     // not the tuple path shape
		`/tupleset`,                                       // too short
		`/tupleset/tuple[1]`,                              // positional predicate
		`/tupleset/tuple[last()]`,                         // function in predicate
		`/tupleset/tuple[@a eq "x"]`,                      // value comparison
		`/tupleset/tuple[count(@a) > 1]`,                  // a function other than number()
		`/tupleset/tuple[number(@a) > 1][number(@b) > 1]`, // two predicates that may raise
		`/tupleset/tuple[content[number(@a) > 1]]`,        // one that may raise inside another
		`/tupleset/tuple[not(@type="x")]`,                 // function in predicate
		`//tuple`,                                         // descendant axis
		`/tupleset/tuple/..`,                              // non-child/attribute step
		`/tupleset/tuple[$v=@type]`,                       // external variable
		`/tupleset/tuple[@type=$v]`,                       // external variable
		`for $t in /tupleset/tuple return $t`,
		`declare variable $x := 1; /tupleset/tuple`,
		`/tupleset/tuple[text()]`,       // kind test
		`/tupleset/tuple[@a="1" + "2"]`, // computed operand
	}
	for _, src := range rejected {
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if h, ok := q.TupleHead(); ok {
			t.Errorf("expected %q to have no tuple head, got %+v", src, h)
		}
		if _, err := q.Eval(&Options{Tuples: func(func(*xmldoc.Node) bool) {}}); err == nil {
			t.Errorf("%q evaluated over a tuple source without a tuple head", src)
		}
	}
}

func TestTupleHeadAttrEq(t *testing.T) {
	h, _ := mustHead(t, `/tupleset/tuple[@type="service" and @owner="cms"][content]`)
	if want := []AttrEq{{"type", "service"}, {"owner", "cms"}}; !slices.Equal(h.Eqs, want) {
		t.Fatalf("Eqs = %v, want %v", h.Eqs, want)
	}
	if h.Other != 1 {
		t.Fatalf("Other = %d, want 1 (the existence test)", h.Other)
	}
	if h.Never {
		t.Fatal("unexpected Never")
	}

	// Contradictory equalities are statically empty.
	if h, _ = mustHead(t, `/tupleset/tuple[@type="a"][@type="b"]`); !h.Never {
		t.Fatal("expected Never for contradictory equalities")
	}
	// Repeating the same equality is satisfiable.
	if h, _ = mustHead(t, `/tupleset/tuple[@type="a" and @type="a"]`); h.Never {
		t.Fatal("unexpected Never for duplicate identical equality")
	}

	// Empty literals are not pushed: an absent attribute is not an empty
	// one.
	if h, _ = mustHead(t, `/tupleset/tuple[@ctx=""]`); len(h.Eqs) != 0 {
		t.Fatal("empty-string equality must not be pushed into Eqs")
	}
	if h.Other != 1 {
		t.Fatalf("Other = %d, want 1", h.Other)
	}
}

func TestWalkPlan(t *testing.T) {
	doc, err := xmldoc.ParseString(
		`<tuple link="l" type="service"><content><service domain="cern.ch">` +
			`<attr name="kind" value="monitor"/><attr name="load" value="0.25"/>` +
			`</service></content></tuple>`)
	if err != nil {
		t.Fatal(err)
	}
	el := doc.DocumentElement()

	_, steps := mustHead(t, `/tupleset/tuple/content/service/attr[@name="kind"]/@value`)
	var got []string
	walkPlan(el, steps[1:], &meter{}, func(n *xmldoc.Node) bool {
		got = append(got, n.StringValue())
		return true
	})
	if strings.Join(got, ",") != "monitor" {
		t.Fatalf("walk = %v", got)
	}

	// Early stop.
	_, steps = mustHead(t, `/tupleset/tuple/content/service/attr`)
	calls := 0
	completed := walkPlan(el, steps[1:], &meter{}, func(*xmldoc.Node) bool { calls++; return false })
	if completed || calls != 1 {
		t.Fatalf("early stop: completed=%v calls=%d", completed, calls)
	}

	// Numeric-literal predicate uses number coercion.
	if _, steps = mustHead(t, `/tupleset/tuple[content/service/attr/@value=0.25]`); !holdAll(steps[0].cpreds, el, &meter{}) {
		t.Fatal("numeric predicate should match 0.25")
	}
	if _, steps = mustHead(t, `/tupleset/tuple[content/service/attr/@value=0.26]`); holdAll(steps[0].cpreds, el, &meter{}) {
		t.Fatal("numeric predicate should not match 0.26")
	}
}

// genTupleSet builds a random <tupleset> document: mostly <tuple> members,
// a few a name test must skip, attributes a head can push down, present or
// not, empty or not, and content of genDoc's vocabulary.
func genTupleSet(rng *rand.Rand) *xmldoc.Node {
	members := []string{"tuple", "tuple", "tuple", "p:tuple", "other"}
	var sb strings.Builder
	sb.WriteString(`<tupleset xmlns:p="urn:p" xmlns:q="urn:q" registry="r">`)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		name := members[rng.Intn(len(members))]
		sb.WriteString("<" + name)
		for _, a := range tupleAttrs {
			if rng.Intn(4) > 0 {
				fmt.Fprintf(&sb, ` %s=%s`, a[1:], tupleLits[rng.Intn(len(tupleLits))])
			}
		}
		sb.WriteString(">")
		for j := rng.Intn(4); j > 0; j-- {
			genElem(rng, &sb, 2)
		}
		sb.WriteString("</" + name + ">")
	}
	sb.WriteString("</tupleset>")
	return xmldoc.MustParse(sb.String())
}

// tupleAttrs and tupleLits are the attributes and values of generated
// members and the equalities generated heads test them with.
var tupleAttrs, tupleLits = []string{"@link", "@type", "@ctx", "@owner", "@k"}, []string{`"x"`, `"1"`, `"abc"`, `""`}

// genTupleQuery generates a query with a tuple head: equalities a source
// can push down (contradictory and empty ones included), predicates of
// the closure grammar beside them, and a walkable path below the tuple.
func genTupleQuery(rng *rand.Rand) string {
	eq := func() string {
		a, l := tupleAttrs[rng.Intn(len(tupleAttrs))], tupleLits[rng.Intn(len(tupleLits))]
		if rng.Intn(4) == 0 {
			return l + " = " + a
		}
		return a + " = " + l
	}
	src := "/tupleset/tuple"
	for i := rng.Intn(3); i > 0; i-- {
		switch rng.Intn(4) {
		case 0:
			src += "[" + eq() + "]"
		case 1:
			src += "[" + eq() + " and " + eq() + "]"
		case 2:
			src += "[" + genPred(rng, 2, false) + "]"
		default:
			src += "[" + eq() + " and " + genPred(rng, 1, false) + "]"
		}
	}
	if rng.Intn(3) > 0 {
		src += "/" + genRelPath(rng, 1)
	}
	return src
}

// TestTuplesMatchDocument is the tuple source's generated differential:
// every query with a tuple head, evaluated over Options.Tuples yielding the
// root's children, gives what it gives over the document and what the
// reference evaluation gives, over the plain and the shared form; a
// consumer that stops after k items sees the document's first k and the
// source yields no member past the one holding the k-th; under a step
// budget the sourced evaluation fails exactly when the document's does; and
// a read from a shared memo gives the same, cold under the same budget and
// warm within it.
func TestTuplesMatchDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	never, empties := 0, 0
	for i := 0; i < 80; i++ {
		plain := genTupleSet(rng)
		docs := []*xmldoc.Node{plain, shareTopLevel(plain)}
		for j := 0; j < 25; j++ {
			src := genTupleQuery(rng)
			h, _ := mustHead(t, src)
			if h.Never {
				never++
			}
			if strings.Contains(src, `""`) {
				empties++
			}
			q := MustCompile(src)
			for _, d := range docs {
				checkTuples(t, q, d)
			}
		}
	}
	if never == 0 || empties == 0 {
		t.Fatalf("%d Never heads, %d empty literals generated: want both > 0", never, empties)
	}
}

// checkTuples compares one query over d's root children with d itself.
func checkTuples(t *testing.T, q *Query, d *xmldoc.Node) {
	t.Helper()
	src, root := q.Source(), d.DocumentElement()
	yielded := 0
	opts := func(steps int, emit func(Item) bool) *Options {
		yielded = 0
		return &Options{MaxSteps: steps, Emit: emit, Tuples: func(visit func(*xmldoc.Node) bool) {
			for _, m := range root.Children {
				yielded++
				if !visit(m) {
					return
				}
			}
		}}
	}
	want, err := q.EvalDoc(d)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	ref, err := MustCompileGeneral(src).EvalDoc(d)
	if err != nil || !sameItems(ref, want) {
		t.Fatalf("%s: reference %s (err %v), document %s", src, Serialize(ref), err, Serialize(want))
	}
	if got, err := q.Eval(opts(0, nil)); err != nil || !sameItems(got, want) {
		t.Fatalf("%s: sourced %s (err %v), document %s", src, Serialize(got), err, Serialize(want))
	}
	for _, k := range []int{1, 2, 5} {
		var seen Sequence
		got, err := q.Eval(opts(0, func(it Item) bool { seen = append(seen, it); return len(seen) < k }))
		n := min(k, len(want))
		if err != nil || got != nil || !sameItems(seen, want[:n]) {
			t.Fatalf("%s stopped after %d: err %v, saw %s, document %s", src, k, err, Serialize(seen), Serialize(want[:n]))
		}
		needed := len(root.Children)
		if len(want) >= k {
			top := want[k-1].(*xmldoc.Node)
			for top.Parent != nil && top.Parent != root {
				top = top.Parent
			}
			needed = 1 + slices.Index(root.Children, top)
		}
		if yielded != needed {
			t.Fatalf("%s stopped after %d: the source yielded %d members, the walk needed %d", src, k, yielded, needed)
		}
	}
	limit := stepsUsed(t, q, d)
	if _, err := q.Eval(opts(limit, nil)); err != nil {
		t.Fatalf("%s: sourced failed under the %d steps the document needs: %v", src, limit, err)
	}
	if _, err := q.Eval(opts(limit-1, nil)); limit > 1 && (err == nil || !strings.Contains(err.Error(), "exceeded")) {
		t.Fatalf("%s: sourced under %d steps, one fewer than the document needs: err %v", src, limit-1, err)
	}
	// Read from a shared memo, as the registry reads an unfiltered scan: a
	// cold read is charged what the walk is, a warm one no more.
	memo := &Memo{}
	for _, pass := range []string{"cold", "warm"} {
		if got, err := q.Eval(&Options{Context: d, Memo: memo, MaxSteps: limit}); err != nil || !sameItems(got, want) {
			t.Fatalf("%s: %s memo read under %d steps: %s (err %v), document %s", src, pass, limit, Serialize(got), err, Serialize(want))
		}
	}
	if _, err := q.Eval(&Options{Context: d, Memo: &Memo{}, MaxSteps: limit - 1}); limit > 1 && (err == nil || !strings.Contains(err.Error(), "exceeded")) {
		t.Fatalf("%s: cold memo read under %d steps, one fewer than the document needs: err %v", src, limit-1, err)
	}
}
