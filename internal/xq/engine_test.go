package xq

import (
	"fmt"
	"math/rand"
	"strings"
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

// checkAgainstGeneral evaluates src both ways over d.
func checkAgainstGeneral(t *testing.T, src string, d *xmldoc.Node) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	got, gotErr := q.EvalDoc(d)
	want, wantErr := MustCompileGeneral(src).EvalDoc(d)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, reference %v", src, gotErr, wantErr)
	}
	if gotErr == nil && !sameItems(got, want) {
		t.Fatalf("%s:\n  compiled  %s\n  reference %s", src, Serialize(got), Serialize(want))
	}
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
			st += "[" + genPred(rng, depth-1) + "]"
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

// genPred generates one predicate of the closure grammar: and/or, a bare
// relative path, or a general `=` between a relative path and a string,
// integer or decimal literal on either side.
func genPred(rng *rand.Rand, depth int) string {
	lits := []string{`"x"`, `""`, `"1"`, `"abc"`, `1`, `2`, `1.0`, `2.5`}
	if depth > 0 {
		switch rng.Intn(5) {
		case 0:
			return genPred(rng, depth-1) + " and " + genPred(rng, depth-1)
		case 1:
			return "(" + genPred(rng, depth-1) + " or " + genPred(rng, depth-1) + ")"
		}
	}
	path, lit := genRelPath(rng, depth), lits[rng.Intn(len(lits))]
	switch rng.Intn(3) {
	case 0:
		return path
	case 1:
		return lit + " = " + path
	}
	return path + " = " + lit
}

// TestCompiledPredicatesMatchGeneral is the generator half of the
// differential: predicates from the closure grammar, nested to depth 3, on
// single-start, descendant and variable-headed paths.
func TestCompiledPredicatesMatchGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
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
				p := genPred(rng, 3)
				pe, err := Compile(p)
				if err != nil {
					t.Fatalf("generated predicate %q: %v", p, err)
				}
				if compilePred(pe.expr) == nil {
					t.Fatalf("generated predicate %q is outside the closure grammar", p)
				}
				preds[k] = p
			}
			src := fmt.Sprintf(shape, preds...)
			for _, d := range docs {
				checkAgainstGeneral(t, src, d)
			}
			// Metamorphic, no seam: `and true()` is outside the grammar, so
			// the right-hand query interprets what the left-hand one runs
			// through closures.
			wrapped := make([]any, len(preds))
			for k, p := range preds {
				wrapped[k] = "(" + p.(string) + ") and true()"
			}
			want, err := EvalString(fmt.Sprintf(shape, wrapped...), plain)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := EvalString(src, plain); err != nil || !sameItems(got, want) {
				t.Fatalf("%s differs from its `and true()` form (err %v)", src, err)
			}
		}
	}
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
	lo, hi := 1, 1<<22
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := q.Eval(&Options{Context: d, MaxSteps: mid}); err == nil {
			hi = mid
		} else if strings.Contains(err.Error(), "exceeded") {
			lo = mid + 1
		} else {
			t.Fatalf("%s: %v", q.Source(), err)
		}
	}
	return lo
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
		p += "[" + genPred(rng, 1) + "]"
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
	// Inside a user function and inside quantifiers.
	`declare function local:f($v) { P1[R1 = $v] }; for $x in distinct-values(P2/R2) return count(local:f($x))`,
	`declare function local:j($a) { for $b in P2 where $b/R2 = $a/R1 return $b }; for $a in P1 return count(local:j($a))`,
	`for $a in P1 return some $b in P2 satisfies $b/R2 = $a/R1`,
	`for $a in P1 return every $b in P2[R2 = $a/R1] satisfies $b/@k`,
	`some $a in P1 satisfies count(for $b in P2 where $b/R2 = $a/R1 return $b) > 1`,
}

// genSetwise fills one shape in.
func genSetwise(rng *rand.Rand) string {
	src := setwiseShapes[rng.Intn(len(setwiseShapes))]
	for _, n := range []string{"1", "2", "3"} {
		src = strings.ReplaceAll(src, "P"+n, genSetPath(rng))
		src = strings.ReplaceAll(src, "R"+n, genRelPath(rng, 1))
	}
	return strings.ReplaceAll(src, "[C]", "["+genPred(rng, 1)+"]")
}

// TestSetwiseMatchesGeneral is the generated FLWOR differential: 2000
// seeded queries of the set-at-a-time shapes and their near-misses, over
// generated documents in plain and shared form, against the reference
// evaluation, which bypasses the memo, the index and the join. Buffered
// results serialise identically and raise or not alike; a consumer that
// stops after k items has seen the reference's first k; and the engine
// fits the step budget the reference needs.
func TestSetwiseMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 40; i++ {
		plain := genDoc(rng)
		docs := []*xmldoc.Node{plain, shareTopLevel(plain)}
		for j := 0; j < 50; j++ {
			src := genSetwise(rng)
			q, err := Compile(src)
			if err != nil {
				t.Fatalf("generated query %q: %v", src, err)
			}
			for _, d := range docs {
				got, gotErr := q.EvalDoc(d)
				want, wantErr := MustCompileGeneral(src).EvalDoc(d)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: err %v, reference %v", src, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if g, w := Serialize(got), Serialize(want); g != w {
					t.Fatalf("%s:\n  engine    %s\n  reference %s", src, g, w)
				}
				for _, k := range []int{1, 3} {
					var seen Sequence
					_, err := q.Eval(&Options{Context: d, Emit: func(it Item) bool {
						seen = append(seen, it)
						return len(seen) < k
					}})
					if n := min(k, len(want)); err != nil || Serialize(seen) != Serialize(want[:n]) {
						t.Fatalf("%s stopped after %d: err %v, saw %s, reference %s", src, k, err, Serialize(seen), Serialize(want[:n]))
					}
				}
				limit := stepsUsed(t, MustCompileGeneral(src), d)
				if _, err := q.Eval(&Options{Context: d, MaxSteps: limit}); err != nil {
					t.Fatalf("%s: %v under the %d steps the reference needs", src, err, limit)
				}
			}
		}
	}
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
	if err != nil || len(first) == 0 || len(c.run.sets) != 1 {
		t.Fatalf("%d items, %d memoised sets, err %v", len(first), len(c.run.sets), err)
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
