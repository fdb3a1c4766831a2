package xq

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"wsda/internal/xmldoc"
)

// FuzzCompile checks the parser never panics and compiled queries never
// panic during evaluation — hostile query text is everyday input for a
// public registry endpoint.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"", "1", "1+", "//a", "//a[", "for $x in //a return $x",
		`<a b="{1}">{2}</a>`, "(((((", `"unterminated`,
		"declare variable $x := 1; $x",
		"declare function local:f($a) { local:f($a) }; local:f(1)",
		"1 to 9999999999999", "$x", ". instance of xs:integer",
		"some $x in 1 satisfies", "a/b/c/@d", "-(-(-1))",
		"let $x := <a/> return $x//b", "1 cast as xs:boolean",
		"(: comment :) 1", "(: unterminated", "a | b | @c",
		"//a[position() = last()]", "fn:count(1)", "xs:integer('3')",
		// The closure grammar and the fused walk (engine_test.go's shapes).
		`/r/a[@x = "1"]`, `/r/a[@x = 1 and (b or "t" = .)]/@x`, `//a[b[@x = 2.5]/@*]`,
		`/r/*[p:a/@k = ""][2 = @x]`, `for $v in //a return $v/*[@x]/@x`,
		`let $s := //a return $s/*[a or b = "t"]`, `(//a | //r)/a/@x`,
		`for $a in /r/a order by $a/@y descending empty greatest return $a`,
	}
	// Nested past MaxDepth: refused, not a stack overflow.
	seeds = append(seeds, strings.Repeat("(", 300)+"1"+strings.Repeat(")", 300))
	for _, s := range seeds {
		f.Add(s)
	}
	doc := xmldoc.MustParse(`<r><a x="1">t</a><a x="2"/></r>`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src)
		if err != nil {
			return
		}
		// Bound evaluation so pathological-but-valid queries terminate.
		_, _ = q.Eval(&Options{Context: doc, MaxSteps: 50_000})
	})
}

// FuzzCompiledComparisonMatchesGeneral holds the comparison closures to the
// reference for any operator, literal and attribute values: as a step
// predicate over a path and over number() of one (which raises where it
// reaches two nodes), and as a FLWOR's compiled where and order-by keys.
func FuzzCompiledComparisonMatchesGeneral(f *testing.F) {
	f.Add(uint8(2), "1", 1.5, false, "1", " 2 ", "x")
	f.Add(uint8(5), "abc", 0.0, true, "NaN", "", "1e3")
	f.Add(uint8(1), "", 2.0, false, "2", "2.0", "-0")
	f.Add(uint8(3), "b", 1e300, true, "a", "B", "b ")
	f.Fuzz(func(t *testing.T, op uint8, s string, x float64, numeric bool, v1, v2, v3 string) {
		lit := `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		if numeric && x >= 0 && !math.IsInf(x, 0) {
			lit = strconv.FormatFloat(x, 'f', -1, 64)
		}
		cmp := " " + genOps[int(op)%len(genOps)] + " " + lit
		root := xmldoc.NewElement("r")
		for i, v := range []string{v1, v2, v3} {
			a := xmldoc.NewElement("a").SetAttr("k", v)
			if i == 1 { // two b's: number(b/@k) raises here
				a.AppendChild(xmldoc.NewElement("b").SetAttr("k", v1))
				a.AppendChild(xmldoc.NewElement("b").SetAttr("k", v3))
			}
			root.AppendChild(a)
		}
		d := xmldoc.NewDocument()
		d.AppendChild(root)
		d.Renumber()
		for _, src := range []string{
			`/r/a[@k` + cmp + `]/@k`,
			`/r/a[number(@k)` + cmp + `]/@k`,
			`/r/a[b/@k` + cmp + `]/@k`,
			`/r/a[number(b/@k)` + cmp + `]/@k`,
			`for $x in /r/a where $x/@k` + cmp + ` order by number($x/@k) return $x/@k`,
			`for $x in /r/a where number($x/@k)` + cmp + ` order by number($x/@k) descending empty greatest return $x/@k`,
			`for $x in /r/a where $x/b/@k` + cmp + ` order by $x/@k return $x/@k`,
		} {
			q, err := Compile(src)
			if err != nil {
				return // a literal the lexer refuses
			}
			got, gotErr := q.EvalDoc(d)
			want, wantErr := MustCompileGeneral(src).EvalDoc(d)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !sameItems(got, want) {
				t.Fatalf("%s: %s (err %v), reference %s (err %v)", src, Serialize(got), gotErr, Serialize(want), wantErr)
			}
		}
	})
}
