package xq

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"wsda/internal/xmldoc"
)

// The shared predicate engine's differential tests. Eval runs a step's
// predicates through compilePred's closures whenever they are inside the
// closure grammar and walks runs of child/attribute steps with walkPlan;
// the reference evaluation (MustCompileGeneral) interprets every predicate
// from its AST, one step at a time with the sort between steps. The two
// must agree on items, order and error-or-not, over a parsed document and
// over its shared form.

// sameItems compares two results item by item: nodes by identity (so a
// duplicate or a reordering cannot hide behind equal text), atomics by
// string value.
func sameItems(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aok := a[i].(*xmldoc.Node)
		bn, bok := b[i].(*xmldoc.Node)
		if aok != bok || (aok && an != bn) || (!aok && StringValue(a[i]) != StringValue(b[i])) {
			return false
		}
	}
	return true
}

// checkAgainstGeneral evaluates src both ways over d: the same items or
// the same error, which it returns.
func checkAgainstGeneral(t *testing.T, src string, d *xmldoc.Node) error {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	got, gotErr := q.EvalDoc(d)
	want, wantErr := MustCompileGeneral(src).EvalDoc(d)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, reference %v", src, gotErr, wantErr)
	}
	if gotErr == nil && !sameItems(got, want) {
		t.Fatalf("%s:\n  compiled  %s\n  reference %s", src, Serialize(got), Serialize(want))
	}
	return wantErr
}

// genDoc builds a random document over a small vocabulary: repeated and
// prefixed element names, attributes that are absent, empty, numeric in
// several spellings or not numeric at all, and occasional text.
func genDoc(rng *rand.Rand) *xmldoc.Node {
	var sb strings.Builder
	sb.WriteString(`<r xmlns:p="urn:p" xmlns:q="urn:q" k="1">`)
	for i := 2 + rng.Intn(4); i > 0; i-- {
		genElem(rng, &sb, 1)
	}
	sb.WriteString("</r>")
	return xmldoc.MustParse(sb.String())
}

// genElem writes one of genDoc's random elements at depth.
func genElem(rng *rand.Rand, sb *strings.Builder, depth int) {
	names := []string{"a", "b", "c", "p:a", "q:b"}
	attrs := []string{"k", "v", "p:k"}
	vals := []string{"", "1", "1.0", "01", " 2 ", "2.5", "x", "abc", "NaN"}
	name := names[rng.Intn(len(names))]
	sb.WriteString("<" + name)
	for _, a := range attrs {
		if rng.Intn(2) == 0 {
			fmt.Fprintf(sb, ` %s="%s"`, a, vals[rng.Intn(len(vals))])
		}
	}
	sb.WriteString(">")
	if rng.Intn(4) == 0 {
		sb.WriteString(vals[rng.Intn(len(vals))])
	}
	if depth < 4 {
		for i := rng.Intn(4); i > 0; i-- {
			genElem(rng, sb, depth+1)
		}
	}
	sb.WriteString("</" + name + ">")
}

// genRelPath generates a relative child/attribute name-step path, its
// steps predicated from the closure grammar while depth lasts.
func genRelPath(rng *rand.Rand, depth int) string {
	elems := []string{"a", "b", "c", "*", "p:a", "q:a"}
	attrs := []string{"@k", "@v", "@*", "@p:k"}
	var steps []string
	for i := 1 + rng.Intn(2); i > 0; i-- {
		st := elems[rng.Intn(len(elems))]
		if depth > 0 && rng.Intn(3) == 0 {
			st += "[" + genPred(rng, depth-1, false) + "]"
		}
		steps = append(steps, st)
	}
	if rng.Intn(2) == 0 {
		if rng.Intn(3) == 0 {
			steps = steps[:0]
		}
		steps = append(steps, attrs[rng.Intn(len(attrs))])
	}
	return strings.Join(steps, "/")
}

// genLits and genOps are the literals and operators generated comparisons
// use.
var genLits, genOps = []string{`"x"`, `""`, `"1"`, `"abc"`, `"2.5"`, `1`, `2`, `1.0`, `2.5`}, []string{"=", "!=", "<", "<=", ">", ">="}

// genCmp writes a general comparison between operand and a literal, in
// either order.
func genCmp(rng *rand.Rand, operand string) string {
	lit, op := genLits[rng.Intn(len(genLits))], genOps[rng.Intn(len(genOps))]
	if rng.Intn(3) == 0 {
		return lit + " " + op + " " + operand
	}
	return operand + " " + op + " " + lit
}

// genPred generates one predicate of the closure grammar: and/or, a bare
// relative path, or a general comparison (any operator) between a
// relative path and a string, integer or decimal literal on either side;
// with num, also number() of a relative path against a literal, which
// raises over two nodes and so only at the top of a predicate.
func genPred(rng *rand.Rand, depth int, num bool) string {
	if depth > 0 {
		switch rng.Intn(5) {
		case 0:
			return genPred(rng, depth-1, num) + " and " + genPred(rng, depth-1, num)
		case 1:
			return "(" + genPred(rng, depth-1, num) + " or " + genPred(rng, depth-1, num) + ")"
		}
	}
	path := genRelPath(rng, depth)
	switch rng.Intn(4) {
	case 0:
		return path
	case 1:
		if num {
			return genCmp(rng, "number("+path+")")
		}
	}
	return genCmp(rng, path)
}

// TestCompiledPredicatesMatchGeneral is the generator half of the
// differential: predicates from the closure grammar, nested to depth 3, on
// single-start, descendant and variable-headed paths, number() over two
// nodes raising the reference's own error.
func TestCompiledPredicatesMatchGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	raised := 0
	shapes := []string{
		`/r/*[%s]`,
		`/r/a[%s]/*`,
		`//a[%s]`,
		`//*[%s]/@k`,
		`/r/*/*[%s][%s]`,
		`for $x in //b return $x/*[%s]`,
		`let $set := //a return $set/*[%s]`,
		`/r/descendant::c[%s]`,
		`//c/ancestor::*[%s]`,
		`count(//*[%s])`,
	}
	for i := 0; i < 40; i++ {
		plain := genDoc(rng)
		docs := []*xmldoc.Node{plain, shareTopLevel(plain)}
		for j := 0; j < 25; j++ {
			shape := shapes[rng.Intn(len(shapes))]
			preds := make([]any, strings.Count(shape, "%s"))
			for k := range preds {
				p := genPred(rng, 3, true)
				pe, err := Compile(p)
				if err != nil {
					t.Fatalf("generated predicate %q: %v", p, err)
				}
				if compilePred(pe.expr, "") == nil {
					t.Fatalf("generated predicate %q is outside the closure grammar", p)
				}
				preds[k] = p
			}
			src := fmt.Sprintf(shape, preds...)
			for _, d := range docs {
				if checkAgainstGeneral(t, src, d) != nil {
					raised++
				}
			}
			// Metamorphic, no seam: `and true()` is outside the grammar, so
			// the right-hand query interprets what the left-hand one runs
			// through closures.
			wrapped := make([]any, len(preds))
			for k, p := range preds {
				wrapped[k] = "(" + p.(string) + ") and true()"
			}
			want, wantErr := EvalString(fmt.Sprintf(shape, wrapped...), plain)
			if got, err := EvalString(src, plain); fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameItems(got, want) {
				t.Fatalf("%s differs from its `and true()` form (err %v, %v)", src, err, wantErr)
			}
		}
	}
	if raised == 0 {
		t.Fatal("no generated query raised: number() over two nodes went untested")
	}
	t.Logf("%d evaluations raised", raised)
}

// TestFusedRunsMatchStepwise: a run of child/attribute steps walked in one
// pass gives what step-at-a-time evaluation with the sort between steps
// gives, from the root and from a bound singleton; shapes that start from
// a node set (an ancestor and its descendant can both be in it) must come
// out duplicate-free and in document order all the same.
func TestFusedRunsMatchStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := []string{
		`/r/%s`,
		`/r/*/%s`,
		`for $v in //a return $v/%s`,
		`for $v in /r/* return count($v/%s)`,
		`//a/%s`,
		`//*/%s`,
		`let $set := //a return $set/%s`,
		`(//a | //b)/%s`,
		`/r/*[2]/%s`,
		`/r/*/../%s`,
	}
	for i := 0; i < 40; i++ {
		plain := genDoc(rng)
		docs := []*xmldoc.Node{plain, shareTopLevel(plain)}
		for j := 0; j < 20; j++ {
			src := fmt.Sprintf(shapes[rng.Intn(len(shapes))], genRelPath(rng, 2))
			for _, d := range docs {
				checkAgainstGeneral(t, src, d)
			}
		}
	}
}

// TestSingletonsNotAliased: literals and boolean results are shared
// preallocated sequences. A caller that appends to a result must not
// change what the next evaluation returns.
func TestSingletonsNotAliased(t *testing.T) {
	d := doc(t)
	for _, src := range []string{
		`"lit"`, `42`, `2.5`,
		`1 = 1`, `1 = 2`, `1 eq 1`, `1 ne 1`, `"a" lt "b"`,
		`true() and true()`, `true() and false()`, `false() or true()`, `false() or false()`,
		`some $s in //service satisfies $s/load > 0.5`,
		`every $s in //service satisfies $s/load > 0.5`,
		`//service/@name = "storage"`,
	} {
		q := MustCompile(src)
		first, err := q.EvalDoc(d)
		if err != nil || len(first) != 1 {
			t.Fatalf("%s: %v items, err %v", src, len(first), err)
		}
		want := StringValue(first[0])
		grown := append(first, "intruder")
		grown[0] = "overwritten"
		again, err := q.EvalDoc(d)
		if err != nil || len(again) != 1 || StringValue(again[0]) != want {
			t.Errorf("%s: re-evaluation gave %v after the first result was appended to, want %q", src, again, want)
		}
	}
}

// stepsUsed is the number of steps an evaluation charges: the smallest
// MaxSteps it succeeds under.
func stepsUsed(t *testing.T, q *Query, d *xmldoc.Node) int {
	t.Helper()
	return stepsWithin(t, q, d, 1<<22, nil)
}

// stepsWithin is stepsUsed searched up to limit (limit+1 when it needs
// more), each try with the Memo memo returns if memo is not nil.
func stepsWithin(t *testing.T, q *Query, d *xmldoc.Node, limit int, memo func() *Memo) int {
	t.Helper()
	lo, hi := 1, limit+1
	for lo < hi {
		mid := (lo + hi) / 2
		opts := &Options{Context: d, MaxSteps: mid}
		if memo != nil {
			opts.Memo = memo()
		}
		if _, err := q.Eval(opts); err == nil {
			hi = mid
		} else if strings.Contains(err.Error(), "exceeded") {
			lo = mid + 1
		} else {
			t.Fatalf("%s: %v", q.Source(), err)
		}
	}
	return lo
}

// genBound generates a where conjunct of the binding plan's grammar over
// $x: a bare operand, a comparison of one or of number() of one with a
// literal, and/or of those; $x alone or $x/rel, rel from genRelPath.
func genBound(rng *rand.Rand, depth int) string {
	operand := "$x"
	if rng.Intn(4) > 0 {
		operand += "/" + genRelPath(rng, 1)
	}
	switch rng.Intn(6) {
	case 0:
		return operand
	case 1, 2:
		return genCmp(rng, "number("+operand+")")
	case 3:
		if depth > 0 {
			return "(" + genBound(rng, depth-1) + " or " + genBound(rng, depth-1) + ")"
		}
	}
	return genCmp(rng, operand)
}

// genFLWOR generates `for $x in //a where … order by … return …` over
// genDoc's trees: compiled where conjuncts (now and then one the plan
// cannot take, which leaves the where interpreted), keys that are
// number() of a path, a path, or $x, reaching no node, one or two and
// numbers, NaN or ties, in either direction and with empty greatest.
func genFLWOR(rng *rand.Rand) string {
	src := "for $x in " + []string{"//a", "/r/*", "//*[@k]"}[rng.Intn(3)]
	if n := rng.Intn(3); n > 0 {
		conj := make([]string, n)
		for i := range conj {
			conj[i] = genBound(rng, 1)
		}
		if rng.Intn(6) == 0 {
			conj = append(conj, `string($x/@k) != "x"`)
		}
		src += " where " + strings.Join(conj, " and ")
	}
	if n := rng.Intn(3); n > 0 {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = []string{"number($x/@k)", "number($x/@v)", "number($x/a/@k)", "number($x)", "$x/@v", "$x/*/@k", "$x"}[rng.Intn(7)]
			keys[i] += []string{"", " descending", " empty greatest", " descending empty greatest"}[rng.Intn(4)]
		}
		src += " order by " + strings.Join(keys, ", ")
	}
	return src + " return " + []string{"$x/@k", "string($x/@v)", "$x"}[rng.Intn(3)]
}

// TestCompiledFLWORMatchesGeneral: FLWORs whose where conjuncts and
// order-by keys compile to the binding plan give what the reference gives
// over generated documents: items and their order, number()'s error over
// two nodes, and never more steps, so that whatever budget the reference
// fits, the compiled evaluation fits too, and one step less than its own
// need exhausts it.
func TestCompiledFLWORMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	raised, planned := 0, 0
	for i := 0; i < 40; i++ {
		d := genDoc(rng)
		for j := 0; j < 25; j++ {
			src := genFLWOR(rng)
			q := MustCompile(src)
			if q.expr.(*flworExpr).analyzed().plan != nil {
				planned++
			}
			if checkAgainstGeneral(t, src, d) != nil {
				raised++
				continue
			}
			need, ref := stepsUsed(t, q, d), stepsUsed(t, MustCompileGeneral(src), d)
			if need > ref {
				t.Fatalf("%s: %d steps, the reference %d", src, need, ref)
			}
			if _, err := q.Eval(&Options{Context: d, MaxSteps: need - 1}); need > 1 && (err == nil || !strings.Contains(err.Error(), "exceeded")) {
				t.Fatalf("%s under %d steps, one fewer than it needs: err %v", src, need-1, err)
			}
		}
	}
	if raised == 0 || planned < 500 {
		t.Fatalf("%d raised, %d of 1000 planned: the generator misses the plan", raised, planned)
	}
}

// TestOrderByNaN: order by sorts NaN next to the empty sequence, equal to
// itself, as XQuery does: () < NaN < every number with empty least, every
// number < NaN < () with empty greatest, both reversed by descending. The
// compiled keys (number() of a bound path) and the reference agree.
func TestOrderByNaN(t *testing.T) {
	d := xmldoc.MustParse(`<r><a k="3"/><a k="x"/><a/><a k="1"/><a k="NaN"/><a k="2"/></r>`)
	seq := `for $x in (3, number("x"), 1, 0, 2, number("y")) order by (if ($x = 0) then () else $x)`
	for _, c := range []struct{ src, want string }{
		{`for $x in (3, number("x"), 1, 2) order by $x return $x`, "NaN 1 2 3"},
		{`for $x in (5, 4, number("x"), 3, 2, 1) order by $x return $x`, "NaN 1 2 3 4 5"},
		{seq + ` return $x`, "0 NaN NaN 1 2 3"},
		{seq + ` empty greatest return $x`, "1 2 3 NaN NaN 0"},
		{seq + ` descending return $x`, "3 2 1 NaN NaN 0"},
		{seq + ` descending empty greatest return $x`, "0 NaN NaN 3 2 1"},
		// number() of a missing or non-numeric attribute is NaN, never empty.
		{`for $a in /r/a order by number($a/@k) return string($a/@k)`, "x  NaN 1 2 3"},
		{`for $a in /r/a order by number($a/@k) descending return string($a/@k)`, "3 2 1 x  NaN"},
		{`for $a in /r/a order by number($a/@k) empty greatest return string($a/@k)`, "1 2 3 x  NaN"},
		{`for $a in /r/a where number($a/@k) != 2 order by number($a/@k) return string($a/@k)`, "x  NaN 1 3"},
	} {
		for _, q := range []*Query{MustCompile(c.src), MustCompileGeneral(c.src)} {
			got, err := q.EvalDoc(d)
			var parts []string
			for _, it := range got {
				parts = append(parts, StringValue(it))
			}
			if err != nil || strings.Join(parts, " ") != c.want {
				t.Errorf("%s (general %v): %q, err %v; want %q", c.src, q.general, strings.Join(parts, " "), err, c.want)
			}
		}
	}
}

// TestCompiledPredicatesChargeSteps pins the step contract of an
// interpreted evaluation: one step for every node a compiled predicate is
// tested against, nested predicates included; a path without predicates
// is free, as it always was.
func TestCompiledPredicatesChargeSteps(t *testing.T) {
	d := xmldoc.MustParse(`<r>` +
		`<s><attr name="kind" value="x"/><attr name="load" value="1"/></s>` +
		`<s><attr name="load" value="2"/><attr name="kind" value="y"/></s>` +
		`<s/></r>`)
	for _, c := range []struct {
		src  string
		want int
	}{
		{`/r/s/attr/@value`, 1},        // no predicate: the floor of one
		{`/r/s[attr]`, 3},              // three <s> tested
		{`/r/s[attr/@value = "x"]`, 3}, // inner path has no predicate of its own
		// 3 <s>, and under each the <attr>s up to the first hit: the
		// existential comparison stops there, so the fourth is never tested.
		{`/r/s[attr[@name = "kind"]/@value = "x"]`, 3 + 1 + 2},
		{`/r/s[attr[@name = "load"]/@value]`, 3 + 2 + 1},
		{`/r/s[attr][attr/@name = "kind"]`, 3 + 2}, // second predicate sees the survivors
		{`//s[attr[@name = "kind"]]`, 3 + 1 + 2},   // any axis, same charge
		{`for $s in /r/s return $s/attr[@name = "kind"]`, 4 + 4},
	} {
		q := MustCompile(c.src)
		if got := stepsUsed(t, q, d); got != c.want {
			t.Errorf("%s charged %d steps, want %d", c.src, got, c.want)
		}
		// The closures may short-circuit below the reference, never above.
		if ref := stepsUsed(t, MustCompileGeneral(c.src), d); ref < c.want {
			t.Errorf("%s: reference charged %d steps, fewer than the compiled %d", c.src, ref, c.want)
		}
	}
}

// --- Set-at-a-time FLWOR (setwise.go) ---

// genSetPath generates an absolute path of walkable steps: what
// set-at-a-time evaluation memoises and indexes.
func genSetPath(rng *rand.Rand) string {
	heads := []string{"/r/a", "/r/b", "/r/*", "/r/*/*", "/r/*/a", "/r/a/b", "/r/p:a", "/r/*/*/*"}
	p := heads[rng.Intn(len(heads))]
	if rng.Intn(3) == 0 {
		p += "[" + genPred(rng, 1, false) + "]"
	}
	return p
}

// setwiseShapes are the three set-at-a-time shapes and their near-misses.
// P<n> becomes a generated set path, R<n> a relative path reaching zero,
// one or several leaves, C a predicate of the closure grammar.
var setwiseShapes = []string{
	// Equality probes: grouping, either operand order, behind compiled
	// predicates, keyed by a path off the loop variable; not on the last step.
	`for $v in distinct-values(P1/R1) return count(P2[R2 = $v])`,
	`for $v in distinct-values(P1/R1) let $g := P2[$v = R2] order by $v return <g v="{$v}" n="{count($g)}">{$g/@k}</g>`,
	`for $a in P1 return <m>{P2[C][R2 = $a/R1]}</m>`,
	`for $a in P1 return <m k="{$a/@k}">{P2[R2 = $a/R1][C]}</m>`,
	`for $a in P1 return P2[R2 = $a/R1]/@k`,
	`for $a in P1 return count(P2[R2 != $a/R1])`,
	`for $a in P1 return count(P2[R2 = string($a/R1)])`,
	// Where-joins: the equality first, last, behind an or; three clauses;
	// `at $i`; shadowed names; a let between the clauses.
	`for $a in P1, $b in P2 where $b/R2 = $a/R1 return <p>{$a/@k}{$b/@v}</p>`,
	`for $a in P1, $b in P2 where $a/R1 = $b/R2 and $b/@k return ($a/@k, $b)`,
	`for $a in P1, $b in P2 where $a/@k and $b/R2 = $a/R1 return $b`,
	`for $a in P1, $b in P2 where ($b/R2 = $a/R1 or $a/@v = "x") return $b`,
	`for $a in P1, $b in P2, $c in P3 where $c/R3 = $b/R2 and $b/@k = $a/@k return <t>{$a/@v}{$c/@v}</t>`,
	`for $a in P1, $b in P2, $c in P3 where $c/R3 = $a/R1 return count($b/*)`,
	`for $a in P1, $b at $i in P2 where $b/R2 = $a/R1 return ($i, $b/@k)`,
	`for $a in P1, $a in P2 where $a/R2 = $a/R1 return $a`,
	`for $b in P1, $a in P1, $b in P2 where $b/R2 = $a/R1 return $b`,
	`for $a in P1 let $x := $a/R1 for $b in P2 where $b/R2 = $x return $b/@k`,
	`for $a in P1, $b in P2 where $b/R2 = $a/R1 order by $b/@k descending return $b`,
	// Probe values: numeric, boolean, empty, multi-valued, duplicated.
	`for $v in (1, 2.5, true(), "x", "1", "") return count(P1[R1 = $v])`,
	`for $v in (1, "1", "abc"), $b in P1 where $b/R1 = $v return $b`,
	`let $e := () return P1[R1 = $e]`,
	`let $m := ("1", "x", "1", "abc") return P1[R1 = $m]`,
	`let $m := ("1", 1) return P1[R1 = $m]`,
	`for $a in P1 let $m := ($a/R1, $a/@k, $a/R1) return count(P2[R2 = $m])`,
	`for $a in P1 let $m := ($a/@k, $a/@v) for $b in P2 where $b/R2 = $m return $b`,
	// The same path under two roots: constructed elements and the document.
	`for $e in (<x><a k="1"/><a k="x" v="1"/></x>, <x><a k="x"/><b k="1"/></x>), $v in ("1", "x") return count($e/*[/a[@k = $v]])`,
	`for $e in (P1, <r><a k="1"><b v="x"/></a></r>, /r) return count($e/self::*[/r/a[R1 = $e/@k]])`,
	// String-literal probes (a constant key: one index lookup), invariant
	// paths at the top level, where only a shared memo keeps them, and
	// literal probes under a loop and as a join's source.
	`P1[R1 = L1]`,
	`count(P1[L1 = R1]), P2[R2 = L2]/@k`,
	`P1, count(P1), P2/@k`,
	`let $p := P1 return ($p, P1[C])`,
	`for $v in ("1", "x") return count(P1[R1 = L1]) + count(P2[R2 = $v])`,
	`for $a in P1[R1 = L1] return count(P2[R2 = L2])`,
	`for $a in P1[R1 = L1], $b in P2[R2 = L2] where $b/R3 = $a/R1 return $b`,
	`for $a in P1 order by $a/@k return <m>{P2[R2 = L1][R3 = $a/R1]}</m>`,
	`declare variable $g := P1; $g[R1 = L1], $g`,
	// Inside a user function and inside quantifiers.
	`declare function local:f($v) { P1[R1 = $v] }; for $x in distinct-values(P2/R2) return count(local:f($x))`,
	`declare function local:j($a) { for $b in P2 where $b/R2 = $a/R1 return $b }; for $a in P1 return count(local:j($a))`,
	`for $a in P1 return some $b in P2 satisfies $b/R2 = $a/R1`,
	`for $a in P1 return every $b in P2[R2 = $a/R1] satisfies $b/@k`,
	`some $a in P1 satisfies count(for $b in P2 where $b/R2 = $a/R1 return $b) > 1`,
}

// genSetwise fills one shape in; L<n> becomes a string literal.
func genSetwise(rng *rand.Rand) string {
	src := setwiseShapes[rng.Intn(len(setwiseShapes))]
	for _, n := range []string{"1", "2", "3"} {
		src = strings.ReplaceAll(src, "P"+n, genSetPath(rng))
		src = strings.ReplaceAll(src, "R"+n, genRelPath(rng, 1))
		src = strings.ReplaceAll(src, "L"+n, []string{`"x"`, `""`, `'1'`, `"abc"`, `" 2 "`}[rng.Intn(5)])
	}
	return strings.ReplaceAll(src, "[C]", "["+genPred(rng, 1, false)+"]")
}

// TestSetwiseMatchesGeneral is the generated FLWOR differential: 4000
// seeded queries of the set-at-a-time shapes and their near-misses, over
// generated documents in plain and shared form, against the reference
// evaluation, which bypasses the memo, the index and the join. Every query
// runs four ways: with no memo, with a cold shared memo, with the same
// memo warm, and with one memo shared by every query over the document
// (keys shared across queries, and past memoCap); every fourth also from 8
// goroutines sharing a fresh memo (run under -race). Buffered results
// serialise identically and raise or not alike; a consumer that stops
// after k items has seen the reference's first k; and the steps charged
// keep warm <= cold <= reference, with no memo <= reference too.
func TestSetwiseMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var counts MemoCounts // the document memos': every outcome must occur
	for i := 0; i < 40; i++ {
		plain := genDoc(rng)
		for _, d := range []*xmldoc.Node{plain, shareTopLevel(plain)} {
			docMemo := &Memo{}
			for j := 0; j < 50; j++ {
				src := genSetwise(rng)
				q, err := Compile(src)
				if err != nil {
					t.Fatalf("generated query %q: %v", src, err)
				}
				want, wantErr := MustCompileGeneral(src).EvalDoc(d)
				cold := &Memo{}
				for _, m := range []struct {
					name string
					memo *Memo
				}{{"no memo", nil}, {"cold memo", cold}, {"warm memo", cold}, {"document's memo", docMemo}} {
					opts := &Options{Context: d, Memo: m.memo}
					if m.memo == docMemo {
						opts.MemoCounts = &counts
					}
					got, gotErr := q.Eval(opts)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s, %s: err %v, reference %v", src, m.name, gotErr, wantErr)
					}
					if g, w := Serialize(got), Serialize(want); wantErr == nil && g != w {
						t.Fatalf("%s, %s:\n  engine    %s\n  reference %s", src, m.name, g, w)
					}
				}
				if wantErr != nil {
					continue
				}
				if j%4 == 0 {
					checkConcurrentMemo(t, q, d, Serialize(want))
				}
				for _, k := range []int{1, 3} {
					for _, m := range []*Memo{nil, docMemo} {
						var seen Sequence
						_, err := q.Eval(&Options{Context: d, Memo: m, Emit: func(it Item) bool {
							seen = append(seen, it)
							return len(seen) < k
						}})
						if n := min(k, len(want)); err != nil || Serialize(seen) != Serialize(want[:n]) {
							t.Fatalf("%s stopped after %d: err %v, saw %s, reference %s", src, k, err, Serialize(seen), Serialize(want[:n]))
						}
					}
				}
				limit := stepsUsed(t, MustCompileGeneral(src), d)
				if _, err := q.Eval(&Options{Context: d, MaxSteps: limit}); err != nil {
					t.Fatalf("%s: %v under the %d steps the reference needs", src, err, limit)
				}
				coldSteps := stepsWithin(t, q, d, limit, func() *Memo { return &Memo{} })
				if coldSteps > limit {
					t.Fatalf("%s: a cold memo needs more than the %d steps the reference needs", src, limit)
				}
				if warm := stepsWithin(t, q, d, coldSteps, func() *Memo { return cold }); warm > coldSteps {
					t.Fatalf("%s: a warm memo needs more than the %d steps a cold one needs", src, coldSteps)
				}
			}
		}
	}
	if counts.Hits == 0 || counts.Builds == 0 || counts.Overflows == 0 {
		t.Errorf("document memos %+v: every outcome must occur", counts)
	}
}

// checkConcurrentMemo evaluates q from 8 goroutines sharing one fresh memo.
func checkConcurrentMemo(t *testing.T, q *Query, d *xmldoc.Node, want string) {
	t.Helper()
	m := &Memo{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := q.Eval(&Options{Context: d, Memo: m}); err != nil || Serialize(got) != want {
				t.Errorf("%s from 8 goroutines on one memo: err %v, got %s, reference %s", q.Source(), err, Serialize(got), want)
			}
		}()
	}
	wg.Wait()
}

// TestSetwiseShapesRecognised pins what compiles to a probe or a join and
// what stays general: the differential above cannot tell a shape that is
// never recognised from one that is recognised correctly.
func TestSetwiseShapesRecognised(t *testing.T) {
	probed := func(src string) bool {
		pe := MustCompile(src).expr.(*pathExpr)
		pe.compiled()
		return pe.probe != nil
	}
	for src, want := range map[string]bool{
		`/r/a[@k = $v]`:                         true,
		`/r/a[$v = @k]`:                         true,
		`/r/a[@v][b/@k = "x"][c[@k]/@v = $v/x]`: true,
		`/r/*/@k[. = $v]`:                       false, // `.` is not a name step
		`/r/a[@k = $v][@v]`:                     false, // the equality must come last
		`/r/a[@k = $v]/b`:                       false,
		`//a[@k = $v]`:                          false,
		`/r/a[@k != $v]`:                        false,
		`/r/a[@k = string($v)]`:                 false,
		`/r/a[@k = $v[1]/x]`:                    false,
		`/r/a[position() > 1][@k = $v]`:         false,
		`/r/a[@k = @v]`:                         false,
		`/r/a[@k = "x"]`:                        false, // a literal is a closure: the path is one invariant list
		`/r/a[b][c/@k = 'x']`:                   false,
		`/r/a["x" = @k]`:                        false,
		`/r/a[@k = 1]`:                          false,
		`/r/a[@k = "x"][@v]`:                    false,
		`/r/a[@k = "x"]/b`:                      false,
		`/r/a[. = "x"]`:                         false,
	} {
		if got := probed(src); got != want {
			t.Errorf("%s: probe %v, want %v", src, got, want)
		}
	}
	for src, want := range map[string]bool{
		`for $a in /r/a, $b in /r/b where $b/@k = $a/@k return 1`:                       true,
		`for $a in /r/a, $b in /r/b[@v] where $a/c/@k = $b/c[@v]/@k and $a/@v return 1`: true,
		`for $a in /r/a, $b in /r/b where $b/@k = $a return 1`:                          true,
		`for $a in /r/a, $b at $i in /r/b where $b/@k = $a/@k return 1`:                 false,
		`for $a in /r/a, $b in /r/b where $a/@v and $b/@k = $a/@k return 1`:             false,
		`for $a in /r/a, $b in /r/b where ($b/@k = $a/@k or $a/@v) return 1`:            false,
		`for $a in /r/a, $b in /r/b where $b/@k = $b/@v return 1`:                       false,
		`for $a in /r/a, $b in //b where $b/@k = $a/@k return 1`:                        false,
		`for $a in /r/a, $b in $a/b where $b/@k = $a/@k return 1`:                       false,
		`for $a in /r/a, $b in /r/b let $x := 1 where $b/@k = $a/@k return 1`:           false,
		`for $a in /r/a, $b in /r/b where $b/@k eq $a/@k return 1`:                      false,
		`for $a in /r/a, $b in /r/b where number($b/@k) = $a/@k return 1`:               false,
	} {
		if got := MustCompile(src).expr.(*flworExpr).whereJoin() != nil; got != want {
			t.Errorf("%s: join %v, want %v", src, got, want)
		}
	}
}

// TestMemoisedSequencesNotAliased: a memoised node set is handed to every
// evaluation of its path. Two callers that append to what they were given
// must not write over each other.
func TestMemoisedSequencesNotAliased(t *testing.T) {
	d := doc(t)
	c := &evalCtx{run: &evalRun{}, item: d, vars: &env{name: "bound"}}
	pe := MustCompile(`/tupleset/tuple/content/service/@name`).expr.(*pathExpr)
	first, err := pe.eval(c)
	if err != nil || len(first) == 0 || len(c.run.own.sets) != 1 {
		t.Fatalf("%d items, %d memoised sets, err %v", len(first), len(c.run.own.sets), err)
	}
	second, _ := pe.eval(c)
	a, b := append(first, "a"), append(second, "b")
	if a[len(first)] != "a" || b[len(second)] != "b" {
		t.Errorf("appends to a memoised sequence alias: %v, %v", a[len(first)], b[len(second)])
	}
	if third, _ := pe.eval(c); !sameItems(third, first) {
		t.Errorf("memoised sequence changed under its callers' appends")
	}
}

// TestSetwiseChargesSteps pins the step contract of set-at-a-time
// evaluation: the index build is charged one step per indexed node, a
// later probe one per node it returns, a join's hits as the FLWOR tuples
// they become — never more than the reference, and a cross product over
// memoised sources is still charged per tuple.
func TestSetwiseChargesSteps(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	const n = 12
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<s d="d%d" kind="%d"><attr name="load" value="%d"/></s>`, i%3, i%2, i)
	}
	sb.WriteString("</r>")
	d := xmldoc.MustParse(sb.String())
	for _, c := range []struct {
		src  string
		want int
	}{
		// 4 tuples (the entry and 3 groups); the first group's probe builds
		// the index over 12 nodes, the other two return 4 each.
		{`for $g in distinct-values(/r/s/@d) return count(/r/s[@d = $g])`, 4 + n + 4 + 4},
		// A single probe is the build and no more than the reference's scan.
		{`let $g := "d1" return /r/s[@d = $g]`, 2 + n},
		// Join: the entry, 6 outer tuples with the unmemoised outer source's
		// 12 tests, the inner source walked once (12 tests), the build (12
		// in all with the first probe's own 2 hits), and 2 hits per later
		// outer tuple.
		{`for $a in /r/s[@kind = "0"], $b in /r/s[@kind = "1"] where $b/@d = $a/@d return 1`, 1 + 6 + n + n + 6 + 5*2},
	} {
		got, ref := stepsUsed(t, MustCompile(c.src), d), stepsUsed(t, MustCompileGeneral(c.src), d)
		if got != c.want {
			t.Errorf("%s charged %d steps, want %d", c.src, got, c.want)
		}
		if got > ref {
			t.Errorf("%s charged %d steps, more than the reference's %d", c.src, got, ref)
		}
	}
	// Pipelining survives: nothing is walked or indexed before evaluation
	// reaches it, so a consumer that stops at the join's first item gets it
	// under a budget the whole join does not fit.
	join := MustCompile(`for $a in /r/s[@kind = "0"], $b in /r/s[@kind = "1"] where $b/@d = $a/@d return <p/>`)
	short, seen := stepsUsed(t, join, d)-1, 0
	if _, err := join.Eval(&Options{Context: d, MaxSteps: short}); err == nil {
		t.Errorf("the whole join fits %d steps", short)
	}
	if _, err := join.Eval(&Options{Context: d, MaxSteps: short, Emit: func(Item) bool { seen++; return false }}); err != nil || seen != 1 {
		t.Errorf("first item of the streamed join under %d steps: %d items, err %v", short, seen, err)
	}
	cross := MustCompile(`for $a in /r/s, $b in /r/s, $c in /r/s return 1`)
	if _, err := cross.Eval(&Options{Context: d, MaxSteps: n * n}); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("a cross product of %d^3 tuples under %d steps: err %v", n, n*n, err)
	}
	build := MustCompile(`for $g in ("d0", "d1") return /r/s[@d = $g]`)
	if _, err := build.Eval(&Options{Context: d, MaxSteps: n - 1}); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("an index build over %d nodes under %d steps: err %v", n, n-1, err)
	}
}

// TestMemoRefusesFailedBuildsAndOtherDocuments: a walk or an index build
// that runs out of steps installs nothing, so the next evaluation over the
// memo still gets the reference's answer; and a memo serves the one
// document it was first given.
func TestMemoRefusesFailedBuildsAndOtherDocuments(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	const n = 12
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<s d="d%d"><attr name="load" value="%d"/></s>`, i%3, i)
	}
	sb.WriteString("</r>")
	d := xmldoc.MustParse(sb.String())
	for _, c := range []struct {
		src    string
		budget int
		keys   int // what the memo holds after the failed evaluation
	}{
		{`count(/r/s[attr])`, n - 1, 0},      // the walk tests 12 nodes
		{`count(/r/s[@d = "d1"])`, n - 1, 0}, // so does a literal's: it is part of the walk
		// Two steps for the let, the list walked for free, its index 12.
		{`let $k := "d1" return count(/r/s[@d = $k])`, n + 1, 1},
		{`let $k := "d1" return count(/r/s[attr][@d = $k])`, 2*n + 1, 1}, // the list costs 12 more
	} {
		m := &Memo{}
		if _, err := MustCompile(c.src).Eval(&Options{Context: d, Memo: m, MaxSteps: c.budget}); err == nil {
			t.Fatalf("%s fits %d steps", c.src, c.budget)
		}
		if len(m.sets) != c.keys {
			t.Errorf("%s under %d steps left %d keys in the memo, want %d", c.src, c.budget, len(m.sets), c.keys)
		}
		want, _ := MustCompileGeneral(c.src).EvalDoc(d)
		if got, err := MustCompile(c.src).Eval(&Options{Context: d, Memo: m}); err != nil || Serialize(got) != Serialize(want) {
			t.Errorf("%s after a failed build: %s, err %v; reference %s", c.src, Serialize(got), err, Serialize(want))
		}
	}
	m := &Memo{}
	q := MustCompile(`count(/r/s)`)
	if _, err := q.Eval(&Options{Context: d, Memo: m}); err != nil {
		t.Fatal(err)
	}
	other := xmldoc.MustParse(`<r><s/></r>`)
	for _, ctx := range []*xmldoc.Node{other, nil} {
		if _, err := q.Eval(&Options{Context: ctx, Memo: m}); err == nil {
			t.Errorf("a memo bound to one document served context %v", ctx)
		}
	}
	if _, err := q.Eval(&Options{Context: d.DocumentElement(), Memo: m}); err != nil {
		t.Errorf("a memo refused a node of its own document: %v", err)
	}
}

// TestMemoKeys: a memo key is the path's canonical text, so respelling a
// path (whitespace, quote style, operand order) keeps its key, and two
// generated paths that share a key select the same nodes on every
// generated document; a table of near misses never shares one.
func TestMemoKeys(t *testing.T) {
	keyOf := func(src string) string {
		pe := MustCompile(src).expr.(*pathExpr)
		pe.compiled()
		if !pe.invariant {
			t.Fatalf("%s is not invariant", src)
		}
		return pe.key
	}
	for _, pair := range [][2]string{
		{`/r/a[@k="x"]`, `/r/a[ @k = 'x' ]`},
		{`/r/a[@k = "x"]`, `/r/a["x" = @k]`},
		{`/r/a[b/@v = 1 and (c or @k)]`, `/r/a[1=b/@v and(c or@k)]`},
		{`/r/p:a/@*`, `/r/p:a/attribute::*`},
	} {
		if a, b := keyOf(pair[0]), keyOf(pair[1]); a != b {
			t.Errorf("%s and %s: keys %q and %q", pair[0], pair[1], a, b)
		}
	}
	near := []string{
		`/r/a`, `/r/*`, `/r/p:a`, `/r/@a`, `/r/a/b`, `/r/a[b]`, `/r/a[@b]`, `/r/a[b/c]`, `/r/a/b[c]`,
		`/r/a[@k="1"]`, `/r/a[@k=1]`, `/r/a[@k=1.5]`, `/r/a[@k="x"]`, `/r/a[@k='x ']`, `/r/a[@k=""]`,
		`/r/a[@k][@v]`, `/r/a[@k and @v]`, `/r/a[@k or @v]`, `/r/a[(@k or @v) and b]`, `/r/a[@k or (@v and b)]`,
		`/r/a[b[c]/@k]`, `/r/a[b[c/@k]]`, `/r/a[b="x"]`, `/r/a[b/@x="x"]`,
	}
	seen := map[string]string{}
	for _, src := range near {
		if prev, dup := seen[keyOf(src)]; dup {
			t.Errorf("%s and %s share key %q", prev, src, keyOf(src))
		}
		seen[keyOf(src)] = src
	}
	rng := rand.New(rand.NewSource(29))
	var docs []*xmldoc.Node
	for i := 0; i < 20; i++ {
		docs = append(docs, genDoc(rng))
	}
	bySrc := map[string]string{} // key -> first source
	for i := 0; i < 600; i++ {
		src := genSetPath(rng)
		k := keyOf(src)
		first, dup := bySrc[k]
		if !dup {
			bySrc[k] = src
			continue
		}
		for _, d := range docs {
			a, errA := EvalString(first, d)
			b, errB := EvalString(src, d)
			if errA != nil || errB != nil || !sameItems(a, b) {
				t.Fatalf("%s and %s share key %q but select different nodes", first, src, k)
			}
		}
	}
}
