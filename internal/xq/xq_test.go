package xq

import (
	"strings"
	"testing"

	"wsda/internal/xmldoc"
)

// testDoc is a miniature tuple set in the shape the hyper registry exposes.
const testDoc = `<tupleset>
  <tuple link="http://cms.cern.ch/rc" type="service">
    <content>
      <service name="replica-catalog" domain="cern.ch">
        <interface type="XQuery"><operation name="query"/></interface>
        <load>0.35</load><uptime>9500</uptime>
      </service>
    </content>
  </tuple>
  <tuple link="http://atlas.cern.ch/sched" type="service">
    <content>
      <service name="scheduler" domain="cern.ch">
        <interface type="Presenter"><operation name="getServiceDescription"/></interface>
        <load>0.80</load><uptime>100</uptime>
      </service>
    </content>
  </tuple>
  <tuple link="http://infn.it/store" type="service">
    <content>
      <service name="storage" domain="infn.it">
        <interface type="XQuery"><operation name="query"/></interface>
        <interface type="Consumer"><operation name="publish"/></interface>
        <load>0.10</load><uptime>20000</uptime>
      </service>
    </content>
  </tuple>
</tupleset>`

func doc(t *testing.T) *xmldoc.Node {
	t.Helper()
	d, err := xmldoc.ParseString(testDoc)
	if err != nil {
		t.Fatalf("parse test doc: %v", err)
	}
	return d
}

// evalStrings evaluates src against the test doc and returns item string
// values.
func evalStrings(t *testing.T, src string) []string {
	t.Helper()
	seq, err := EvalString(src, doc(t))
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = StringValue(it)
	}
	return out
}

func evalOne(t *testing.T, src string) string {
	t.Helper()
	got := evalStrings(t, src)
	if len(got) != 1 {
		t.Fatalf("eval %q: got %d items %v, want 1", src, len(got), got)
	}
	return got[0]
}

func TestLiterals(t *testing.T) {
	cases := map[string]string{
		`42`:          "42",
		`4.5`:         "4.5",
		`"hello"`:     "hello",
		`'world'`:     "world",
		`"a""b"`:      `a"b`,
		`true()`:      "true",
		`false()`:     "false",
		`1 + 2 * 3`:   "7",
		`(1 + 2) * 3`: "9",
		`7 mod 3`:     "1",
		`7 idiv 2`:    "3",
		`10 div 4`:    "2.5",
		`-5 + 2`:      "-3",
		`2 - -3`:      "5",
	}
	for src, want := range cases {
		if got := evalOne(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestSequences(t *testing.T) {
	if got := evalStrings(t, `(1, 2, 3)`); len(got) != 3 {
		t.Errorf("(1,2,3) has %d items", len(got))
	}
	if got := evalStrings(t, `1 to 4`); strings.Join(got, ",") != "1,2,3,4" {
		t.Errorf("1 to 4 = %v", got)
	}
	if got := evalStrings(t, `()`); len(got) != 0 {
		t.Errorf("() has %d items", len(got))
	}
	if got := evalOne(t, `count((1, 2, (), (3, 4)))`); got != "4" {
		t.Errorf("count = %s", got)
	}
	if got := evalStrings(t, `4 to 2`); len(got) != 0 {
		t.Errorf("4 to 2 should be empty, got %v", got)
	}
}

func TestPaths(t *testing.T) {
	if got := evalStrings(t, `/tupleset/tuple`); len(got) != 3 {
		t.Fatalf("tuples = %d, want 3", len(got))
	}
	if got := evalStrings(t, `//service/@name`); strings.Join(got, ",") != "replica-catalog,scheduler,storage" {
		t.Errorf("names = %v", got)
	}
	if got := evalStrings(t, `//interface[@type="XQuery"]`); len(got) != 2 {
		t.Errorf("XQuery interfaces = %d, want 2", len(got))
	}
	if got := evalOne(t, `count(//operation)`); got != "4" {
		t.Errorf("operations = %s, want 4", got)
	}
	if got := evalOne(t, `//service[@name="storage"]/load`); got != "0.10" {
		t.Errorf("storage load = %q", got)
	}
	// Positional predicate.
	if got := evalOne(t, `string(/tupleset/tuple[2]/content/service/@name)`); got != "scheduler" {
		t.Errorf("tuple[2] = %q", got)
	}
	// last()
	if got := evalOne(t, `string(/tupleset/tuple[last()]/content/service/@name)`); got != "storage" {
		t.Errorf("tuple[last()] = %q", got)
	}
	// Parent axis.
	if got := evalOne(t, `string((//load)[1]/../@name)`); got != "replica-catalog" {
		t.Errorf("parent nav = %q", got)
	}
	// Wildcard.
	if got := evalOne(t, `count(/tupleset/*)`); got != "3" {
		t.Errorf("wildcard = %s", got)
	}
	// text()
	if got := evalOne(t, `string((//load/text())[1])`); got != "0.35" {
		t.Errorf("text() = %q", got)
	}
	// Document order and dedup through union.
	if got := evalStrings(t, `(//load | //load)`); len(got) != 3 {
		t.Errorf("union dedup: %d items", len(got))
	}
}

func TestComparisons(t *testing.T) {
	cases := map[string]string{
		`1 < 2`:                   "true",
		`2 <= 2`:                  "true",
		`"a" = "a"`:               "true",
		`"a" != "a"`:              "false",
		`1 eq 1`:                  "true",
		`1 ne 2`:                  "true",
		`"abc" lt "abd"`:          "true",
		`//load > 0.5`:            "true", // existential: 0.80 matches
		`//load > 0.9`:            "false",
		`count(//tuple) ge 3`:     "true",
		`not(1 = 2)`:              "true",
		`true() and not(false())`: "true",
		`false() or true()`:       "true",
	}
	for src, want := range cases {
		if got := evalOne(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestFLWOR(t *testing.T) {
	got := evalStrings(t, `
		for $s in //service
		where $s/load < 0.5
		return string($s/@name)`)
	if strings.Join(got, ",") != "replica-catalog,storage" {
		t.Errorf("FLWOR where = %v", got)
	}

	got = evalStrings(t, `
		for $s in //service
		order by number($s/load)
		return string($s/@name)`)
	if strings.Join(got, ",") != "storage,replica-catalog,scheduler" {
		t.Errorf("order by = %v", got)
	}

	got = evalStrings(t, `
		for $s in //service
		order by number($s/load) descending
		return string($s/@name)`)
	if strings.Join(got, ",") != "scheduler,replica-catalog,storage" {
		t.Errorf("order by desc = %v", got)
	}

	// An empty key sorts where "empty least" (the default) or "empty
	// greatest" says, independently of the direction of the rest.
	keyed := xmldoc.MustParse(`<r><a k="2"/><a/><a k="1"/></r>`)
	for mod, want := range map[string]string{
		"":                          ",1,2",
		"empty least":               ",1,2",
		"empty greatest":            "1,2,",
		"descending":                "2,1,",
		"descending empty least":    "2,1,",
		"descending empty greatest": ",2,1",
		"ascending empty greatest":  "1,2,",
	} {
		src := `for $a in /r/a order by $a/@k ` + mod + ` return string($a/@k)`
		seq, err := EvalString(src, keyed)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := strings.ReplaceAll(Serialize(seq), "\n", ","); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}

	got = evalStrings(t, `
		let $n := count(//service)
		return $n * 10`)
	if strings.Join(got, ",") != "30" {
		t.Errorf("let = %v", got)
	}

	got = evalStrings(t, `
		for $s at $i in //service
		return concat($i, ":", $s/@name)`)
	if strings.Join(got, "|") != "1:replica-catalog|2:scheduler|3:storage" {
		t.Errorf("at = %v", got)
	}

	// Nested for (join).
	got = evalStrings(t, `
		for $a in //service, $b in //service
		where $a/@domain = $b/@domain and $a/@name lt $b/@name
		return concat($a/@name, "+", $b/@name)`)
	if strings.Join(got, ",") != "replica-catalog+scheduler" {
		t.Errorf("join = %v", got)
	}
}

func TestQuantified(t *testing.T) {
	if got := evalOne(t, `some $s in //service satisfies $s/load > 0.5`); got != "true" {
		t.Errorf("some = %s", got)
	}
	if got := evalOne(t, `every $s in //service satisfies $s/load < 0.9`); got != "true" {
		t.Errorf("every = %s", got)
	}
	if got := evalOne(t, `every $s in //service satisfies $s/load < 0.5`); got != "false" {
		t.Errorf("every2 = %s", got)
	}
}

func TestConditional(t *testing.T) {
	if got := evalOne(t, `if (count(//tuple) > 2) then "many" else "few"`); got != "many" {
		t.Errorf("if = %s", got)
	}
	if got := evalOne(t, `if (()) then "y" else "n"`); got != "n" {
		t.Errorf("if empty = %s", got)
	}
}

func TestStringFunctions(t *testing.T) {
	cases := map[string]string{
		`concat("a", "b", "c")`:           "abc",
		`contains("hello world", "lo w")`: "true",
		`starts-with("cern.ch", "cern")`:  "true",
		`ends-with("cern.ch", ".ch")`:     "true",
		`substring("12345", 2, 3)`:        "234",
		`substring("12345", 2)`:           "2345",
		`substring-before("a=b", "=")`:    "a",
		`substring-after("a=b", "=")`:     "b",
		`string-length("abcd")`:           "4",
		`normalize-space("  a   b ")`:     "a b",
		`upper-case("abc")`:               "ABC",
		`lower-case("ABC")`:               "abc",
		`translate("abcb", "b", "x")`:     "axcx",
		`string-join(("a","b","c"), "-")`: "a-b-c",
		`"a" || "b" || "c"`:               "abc",
		`count(tokenize("a,b,c", ","))`:   "3",
		`matches("cern.ch", "^cern")`:     "true",
		`replace("a-b-c", "-", "+")`:      "a+b+c",
	}
	for src, want := range cases {
		if got := evalOne(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestNumericFunctions(t *testing.T) {
	cases := map[string]string{
		`sum((1, 2, 3))`:            "6",
		`sum(())`:                   "0",
		`avg((2, 4))`:               "3",
		`min((3, 1, 2))`:            "1",
		`max((3.5, 1.0))`:           "3.5",
		`round(2.5)`:                "3",
		`floor(2.9)`:                "2",
		`ceiling(2.1)`:              "3",
		`abs(-4)`:                   "4",
		`number("1.5") * 2`:         "3",
		`sum(//service/load) > 1.2`: "true",
	}
	for src, want := range cases {
		if got := evalOne(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestSequenceFunctions(t *testing.T) {
	cases := map[string]string{
		`empty(())`:                                 "true",
		`exists(//tuple)`:                           "true",
		`count(distinct-values((1, 2, 1)))`:         "2",
		`count(distinct-values(//service/@domain))`: "2",
		`string-join(reverse(("a","b")), "")`:       "ba",
		`count(subsequence((1,2,3,4), 2, 2))`:       "2",
		`index-of((10, 20, 30), 20)`:                "2",
		`count(insert-before((1,2), 2, (9)))`:       "3",
		`count(remove((1,2,3), 2))`:                 "2",
		`deep-equal((1, 2), (1, 2))`:                "true",
	}
	for src, want := range cases {
		if got := evalOne(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestNodeFunctions(t *testing.T) {
	if got := evalOne(t, `name((//service)[1])`); got != "service" {
		t.Errorf("name = %s", got)
	}
	if got := evalOne(t, `local-name((//service)[1])`); got != "service" {
		t.Errorf("local-name = %s", got)
	}
}

func TestConstructors(t *testing.T) {
	seq, err := EvalString(`<result n="{count(//service)}">{
		for $s in //service where $s/load < 0.2 return <hit>{string($s/@name)}</hit>
	}</result>`, doc(t))
	if err != nil {
		t.Fatalf("constructor: %v", err)
	}
	if len(seq) != 1 {
		t.Fatalf("constructor result = %d items", len(seq))
	}
	n, ok := seq[0].(*xmldoc.Node)
	if !ok {
		t.Fatalf("constructor result is %T", seq[0])
	}
	if v, _ := n.Attr("n"); v != "3" {
		t.Errorf("attr n = %q, want 3", v)
	}
	hits := n.ChildElements()
	if len(hits) != 1 || hits[0].StringValue() != "storage" {
		t.Errorf("hits = %v", n.String())
	}

	// Literal text and escaped braces.
	s := mustEvalOneNode(t, `<a>x {{y}} z</a>`)
	if got := s.StringValue(); got != "x {y} z" {
		t.Errorf("escaped braces text = %q", got)
	}

	// Nested constructors with static attributes.
	s = mustEvalOneNode(t, `<a p="1"><b q="2">t</b></a>`)
	if s.String() != `<a p="1"><b q="2">t</b></a>` {
		t.Errorf("nested ctor = %s", s.String())
	}

	// Computed constructors.
	s = mustEvalOneNode(t, `element res { attribute k {"v"}, text {"body"} }`)
	if s.String() != `<res k="v">body</res>` {
		t.Errorf("computed ctor = %s", s.String())
	}
	s = mustEvalOneNode(t, `element {concat("a","b")} {"x"}`)
	if s.String() != `<ab>x</ab>` {
		t.Errorf("computed name ctor = %s", s.String())
	}
}

func mustEvalOneNode(t *testing.T, src string) *xmldoc.Node {
	t.Helper()
	seq, err := EvalString(src, doc(t))
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	if len(seq) != 1 {
		t.Fatalf("eval %q: %d items", src, len(seq))
	}
	n, ok := seq[0].(*xmldoc.Node)
	if !ok {
		t.Fatalf("eval %q: item is %T", src, seq[0])
	}
	return n
}

func TestVariables(t *testing.T) {
	q := MustCompile(`for $s in //service where $s/load < $max return string($s/@name)`)
	seq, err := q.Eval(&Options{
		Context: doc(t),
		Vars:    map[string]Sequence{"max": Singleton(0.5)},
	})
	if err != nil {
		t.Fatalf("eval with vars: %v", err)
	}
	if len(seq) != 2 {
		t.Errorf("got %d services, want 2", len(seq))
	}
	// Undefined variable errors.
	if _, err := EvalString(`$nope`, doc(t)); err == nil {
		t.Error("undefined variable did not error")
	}
}

func TestThesisQueries(t *testing.T) {
	// The three query classes from thesis Ch. 3: simple (exact-match),
	// medium (predicates + navigation), complex (join/aggregate + restructure).
	simple := `//service[@name="scheduler"]`
	if got := evalStrings(t, simple); len(got) != 1 {
		t.Errorf("simple query hits = %d", len(got))
	}
	medium := `for $s in //service
		where $s/interface/@type = "XQuery" and $s/load < 0.5
		return $s/@name`
	if got := evalStrings(t, medium); strings.Join(got, ",") != "replica-catalog,storage" {
		t.Errorf("medium query = %v", got)
	}
	complexQ := `<summary total="{count(//service)}">{
		for $d in distinct-values(//service/@domain)
		let $svcs := //service[@domain = $d]
		order by $d
		return <domain name="{$d}" services="{count($svcs)}" avgload="{avg(for $l in $svcs/load return number($l))}"/>
	}</summary>`
	n := mustEvalOneNode(t, complexQ)
	if v, _ := n.Attr("total"); v != "3" {
		t.Errorf("total = %q", v)
	}
	doms := n.ChildElements()
	if len(doms) != 2 {
		t.Fatalf("domains = %d", len(doms))
	}
	if v, _ := doms[0].Attr("name"); v != "cern.ch" {
		t.Errorf("first domain = %q", v)
	}
	if v, _ := doms[1].Attr("services"); v != "1" {
		t.Errorf("infn services = %q", v)
	}
}

func TestStreaming(t *testing.T) {
	q := MustCompile(`for $s in //service return string($s/@name)`)
	if !q.Pipelineable() {
		t.Error("FLWOR without order by should be pipelineable")
	}
	var got []string
	_, err := q.Eval(&Options{Context: doc(t), Emit: func(it Item) bool {
		got = append(got, StringValue(it))
		return len(got) < 2
	}})
	if err != nil {
		t.Fatalf("streaming eval: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("emitted %d, want 2 (early stop)", len(got))
	}

	qo := MustCompile(`for $s in //service order by $s/@name return $s`)
	if qo.Pipelineable() {
		t.Error("ordered FLWOR should not be pipelineable")
	}
	qa := MustCompile(`count(//service)`)
	if qa.Pipelineable() {
		t.Error("aggregate should not be pipelineable")
	}
	// Non-FLWOR query still delivers via Emit.
	var n int
	_, err = qa.Eval(&Options{Context: doc(t), Emit: func(Item) bool { n++; return true }})
	if err != nil || n != 1 {
		t.Errorf("emit aggregate: n=%d err=%v", n, err)
	}
}

func TestMaxSteps(t *testing.T) {
	q := MustCompile(`for $a in 1 to 1000, $b in 1 to 1000 return $a*$b`)
	_, err := q.Eval(&Options{MaxSteps: 10000})
	if err == nil {
		t.Error("expected step-limit error")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`for $x in`,
		`1 +`,
		`//[`,
		`<a>`,
		`<a></b>`,
		`let $x = 1 return $x`, // needs :=
		`"unterminated`,
		`(1, 2`,
		`if (1) then 2`,
		`fn:no-such-fn(1) no`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
	// Unknown function is a runtime error.
	if _, err := EvalString(`no-such-fn(1)`, nil); err == nil {
		t.Error("unknown function did not error")
	}
}

func TestComments(t *testing.T) {
	if got := evalOne(t, `(: outer (: inner :) still comment :) 1 + 1`); got != "2" {
		t.Errorf("comment skip = %s", got)
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, src := range []string{`1 div 0`, `1 idiv 0`, `1 mod 0`} {
		if _, err := EvalString(src, nil); err == nil {
			t.Errorf("%s did not error", src)
		}
	}
}
