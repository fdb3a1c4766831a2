package xq

import (
	"strings"
	"testing"

	"wsda/internal/xmldoc"
)

func mustPlan(t *testing.T, src string) *TuplePlan {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	p, ok := q.DiscoveryPlan()
	if !ok {
		t.Fatalf("expected %q to be plannable", src)
	}
	return p
}

func TestDiscoveryPlanShapes(t *testing.T) {
	plannable := []string{
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
	}
	for _, src := range plannable {
		mustPlan(t, src)
	}

	unplannable := []string{
		`count(/tupleset/tuple)`,          // function call root
		`string(/tupleset/@registry)`,     // not the tuple path shape
		`/tupleset`,                       // too short
		`/tupleset/tuple[1]`,              // positional predicate
		`/tupleset/tuple[last()]`,         // function in predicate
		`/tupleset/tuple[@type!="x"]`,     // unsupported operator
		`/tupleset/tuple[@year>2000]`,     // ordering comparison
		`/tupleset/tuple[not(@type="x")]`, // function in predicate
		`//tuple`,                         // descendant axis
		`/tupleset/tuple/..`,              // non-child/attribute step
		`/tupleset/tuple[$v=@type]`,       // external variable
		`/tupleset/tuple[@type=$v]`,       // external variable
		`for $t in /tupleset/tuple return $t`,
		`declare variable $x := 1; /tupleset/tuple`,
		`/tupleset/tuple[text()]`,       // kind test
		`/tupleset/tuple[@a="1" + "2"]`, // computed operand
	}
	for _, src := range unplannable {
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if p, ok := q.DiscoveryPlan(); ok {
			t.Errorf("expected %q to be unplannable, got plan %+v", src, p)
		}
	}
}

func TestDiscoveryPlanAttrEq(t *testing.T) {
	p := mustPlan(t, `/tupleset/tuple[@type="service" and @owner="cms"][content]`)
	if p.AttrEq["type"] != "service" || p.AttrEq["owner"] != "cms" {
		t.Fatalf("AttrEq = %v", p.AttrEq)
	}
	if len(p.Residual) != 1 {
		t.Fatalf("residual = %d, want 1 (the existence test)", len(p.Residual))
	}
	if p.Never {
		t.Fatal("unexpected Never")
	}

	// Contradictory equalities are statically empty.
	p = mustPlan(t, `/tupleset/tuple[@type="a"][@type="b"]`)
	if !p.Never {
		t.Fatal("expected Never for contradictory equalities")
	}
	// Repeating the same equality is satisfiable.
	p = mustPlan(t, `/tupleset/tuple[@type="a" and @type="a"]`)
	if p.Never {
		t.Fatal("unexpected Never for duplicate identical equality")
	}

	// Empty literals must stay residual: an absent attribute is not an
	// empty one.
	p = mustPlan(t, `/tupleset/tuple[@ctx=""]`)
	if _, ok := p.AttrEq["ctx"]; ok {
		t.Fatal("empty-string equality must not be pushed into AttrEq")
	}
	if len(p.Residual) != 1 {
		t.Fatalf("residual = %d, want 1", len(p.Residual))
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

	p := mustPlan(t, `/tupleset/tuple/content/service/attr[@name="kind"]/@value`)
	var got []string
	WalkPlan(el, p.Proj, nil, func(n *xmldoc.Node) bool {
		got = append(got, n.StringValue())
		return true
	})
	if strings.Join(got, ",") != "monitor" {
		t.Fatalf("walk = %v", got)
	}

	// Early stop.
	p = mustPlan(t, `/tupleset/tuple/content/service/attr`)
	calls := 0
	completed := WalkPlan(el, p.Proj, nil, func(*xmldoc.Node) bool { calls++; return false })
	if completed || calls != 1 {
		t.Fatalf("early stop: completed=%v calls=%d", completed, calls)
	}

	// Numeric-literal predicate uses number coercion.
	p = mustPlan(t, `/tupleset/tuple[content/service/attr/@value=0.25]`)
	for _, pred := range p.Residual {
		if !pred(el, nil) {
			t.Fatal("numeric residual predicate should match 0.25")
		}
	}
	p = mustPlan(t, `/tupleset/tuple[content/service/attr/@value=0.26]`)
	for _, pred := range p.Residual {
		if pred(el, nil) {
			t.Fatal("numeric residual predicate should not match 0.26")
		}
	}
}
