package xq

import (
	"fmt"
	"strings"
	"testing"

	"wsda/internal/xmldoc"
)

// TestSyntaxErrors pins the front end's error text: one malformed query for
// each place the lexer, the parser and the constructor parser report one,
// with the position and wording a client sees.
func TestSyntaxErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 2", "xq: 1:3: unexpected integer literal \"2\" after expression"},
		{"declare function 1() { 1 }; 1", "xq: 1:18: expected function name, got \"1\""},
		{"declare function local:f() { 1 }; declare function f() { 2 }; 1", "xq: 1:52: function f declared twice"},
		{". instance of 1", "xq: 1:15: expected type name, got \"1\""},
		{". cast as xs:nothing", "xq: 1:11: unknown type \"xs:nothing\""},
		{". instance of node(1", "xq: 1:20: expected ) in type, got \"1\""},
		{"child::(", "xq: 1:8: expected node test after child::"},
		{"bogus::a", "xq: 1:1: unknown axis \"bogus\""},
		{"child::", "xq: 1:8: expected node test after child::"},
		{"99999999999999999999", "xq: 1:1: bad integer literal \"99999999999999999999\""},
		{")", "xq: 1:1: unexpected symbol \")\""},
		{"element 1 {}", "xq: 1:9: unexpected integer literal \"1\" after expression"},
		{"attribute {1} {2}", "xq: 1:11: expected attribute name"},
		{"if (1) then 2", "xq: 1:14: expected \"else\", got \"\""},
		{"(1, 2", "xq: 1:6: expected \")\", got \"\""},
		{"let $x = 1 return $x", "xq: 1:8: expected \":=\", got \"=\""},
		{"for x in 1 return x", "xq: 1:5: unexpected name \"x\" after expression"},
		{"//@1", "xq: 1:4: expected name or *, got \"1\""},
		{"< a", "xq: 1:1: unexpected \"<\""},
		{"<a><1/></a>", "xq: 1:5: expected element name in constructor"},
		{"<a", "xq: 1:3: unterminated start tag <a"},
		{"<a/ >", "xq: 1:3: expected /> in start tag"},
		{"<a =1/>", "xq: 1:4: expected attribute name in <a>"},
		{"<a b/>", "xq: 1:5: expected = after attribute b"},
		{"<a b=c/>", "xq: 1:6: expected quoted value for attribute b"},
		{"<a>}</a>", "xq: 1:4: unescaped } in element content"},
		{"<a></a b>", "xq: 1:4: malformed end tag"},
		{"<a></b>", "xq: 1:4: end tag </b> does not match <a>"},
		{"<a><!-- x</a>", "xq: 1:4: unterminated comment"},
		{"<a>", "xq: 1:4: missing end tag </a>"},
		{"<a b=\"}\"/>", "xq: 1:7: unescaped } in attribute value"},
		{"<a b=\"x", "xq: 1:8: unterminated attribute value"},
		{"<a>{1 2}</a>", "xq: 1:7: expected } after embedded expression, got \"2\""},
		{"$", "xq: 1:1: expected variable name after $"},
		{"\xff", "xq: 1:1: unexpected character 'ÿ'"},
		{"1 # 2", "xq: 1:3: unexpected character '#'"},
		{"1 ! 2", "xq: 1:3: unexpected character '!'"},
		{"\"unterminated", "xq: 1:1: unterminated string literal"},
		{"for $x in", "xq: 1:10: unexpected end of input \"\""},
		{"1 +", "xq: 1:4: unexpected end of input \"\""},
		{"//[", "xq: 1:3: unexpected symbol \"[\""},
		{"some $x in 1 satisfies", "xq: 1:23: unexpected end of input \"\""},
		{"declare variable $x 1; $x", "xq: 1:21: expected \":=\", got \"1\""},
		{"text {1", "xq: 1:8: expected \"}\", got \"\""},
		{"element a {1", "xq: 1:13: expected \"}\", got \"\""},
		{"element {1} 2", "xq: 1:13: expected \"{\", got \"2\""},
		{"1 castable as 2", "xq: 1:15: expected type name, got \"2\""},
		{"$x[", "xq: 1:4: unexpected end of input \"\""},
		{"f(1,", "xq: 1:5: unexpected end of input \"\""},
		{"for $x at 1 in 2 return 3", "xq: 1:11: expected variable, got \"1\""},
		{"for $x in 1 order $x return 3", "xq: 1:19: expected \"by\", got \"x\""},
		{"for $x in 1 order by $x empty 1 return 3", "xq: 1:31: expected \"least\", got \"1\""},
		{"declare function f($a $b) { 1 }; 1", "xq: 1:23: expected \")\", got \"b\""},
		{"(: unterminated", "xq: 1:16: unexpected end of input \"\""},
		{"if (1) then 2 else", "xq: 1:19: unexpected end of input \"\""},
		{"a::b", "xq: 1:1: unknown axis \"a\""},
		{"a/b/", "xq: 1:5: unexpected end of input \"\""},
		{"<a>{<b></a>}</a>", "xq: 1:8: end tag </a> does not match <b>"},
		{"x(: c :) ¡", "xq: 1:10: unexpected character 'Â'"},
		{"\n\n  (1,\n   $ )", "xq: 4:4: expected variable name after $"},
		{"1 to 2 to 3", "xq: 1:8: unexpected name \"to\" after expression"},
		{"1 = 2 = 3", "xq: 1:7: unexpected symbol \"=\" after expression"},
		{"-", "xq: 1:2: unexpected end of input \"\""},
		{"/ )", "xq: 1:3: unexpected symbol \")\" after expression"},
		{"@*/node(", "xq: 1:9: expected \")\", got \"\""},
		{"child::text(x", "xq: 1:13: expected \")\", got \"x\""},
		{"text a", "xq: 1:1: unexpected name \"text\""},
		{"element a 1", "xq: 1:11: expected \"{\", got \"1\""},
		{"declare $", "xq: 1:9: expected variable name after $"},
		{". instance #", "xq: 1:12: unexpected character '#'"},
		{". cast #", "xq: 1:8: unexpected character '#'"},
		{"1 div", "xq: 1:6: unexpected end of input \"\""},
		{"for $x in 1 where", "xq: 1:18: unexpected end of input \"\""},
		{"every $x in (1) satisfies 1 1", "xq: 1:29: unexpected integer literal \"1\" after expression"},
		{"<a b=\"{1 2}\"/>", "xq: 1:10: expected } after embedded expression, got \"2\""},
		{"'a''b", "xq: 1:1: unterminated string literal"},
		{"a[1", "xq: 1:4: expected \"]\", got \"\""},
		{"declare variable $x external 1", "xq: 1:30: expected \";\", got \"1\""},
		{strings.Repeat("9", 400) + ".5", `xq: 1:1: bad decimal literal "` + strings.Repeat("9", 400) + `.5"`},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Compile(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestMaxDepth: MaxDepth levels of parentheses, predicates and direct
// constructors compile and evaluate, one level more is a syntax error at
// the innermost level, and a megabyte of "(" is refused at the bound
// without exhausting the stack.
func TestMaxDepth(t *testing.T) {
	nest := func(open, mid, close string, n int) string {
		return strings.Repeat(open, n) + mid + strings.Repeat(close, n)
	}
	// MaxDepth nested <a> elements: what a[a[...a[1]]] walks down.
	deep, err := xmldoc.ParseString(nest("<a>", "", "</a>", MaxDepth))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, open, mid, close string
		col                    int // of the innermost level, one past MaxDepth
	}{
		{"parentheses", "(", "1", ")", MaxDepth + 2},
		{"predicates", "a[", "1", "]", 2*(MaxDepth+1) + 1},
		{"constructors", "<a>", "", "</a>", 3*MaxDepth + 2},
	} {
		src := nest(c.open, c.mid, c.close, MaxDepth)
		seq, err := MustCompile(src).Eval(&Options{Context: deep})
		if err != nil || len(seq) != 1 {
			t.Errorf("%s: %d levels: %d items, %v; want 1", c.name, MaxDepth, len(seq), err)
		}
		_, err = Compile(nest(c.open, c.mid, c.close, MaxDepth+1))
		want := fmt.Sprintf("xq: 1:%d: expressions nested deeper than %d", c.col, MaxDepth)
		if err == nil || err.Error() != want {
			t.Errorf("%s: %d levels: %v, want %s", c.name, MaxDepth+1, err, want)
		}
	}
	_, err = Compile(strings.Repeat("(", 1<<20))
	if want := fmt.Sprintf("xq: 1:%d: expressions nested deeper than %d", MaxDepth+2, MaxDepth); err == nil || err.Error() != want {
		t.Errorf("1 MiB of (: %v, want %s", err, want)
	}
}
