package xq

import (
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
