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
// closure grammar and walks runs of child/attribute steps with WalkPlan;
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
	names := []string{"a", "b", "c", "p:a", "q:b"}
	attrs := []string{"k", "v", "p:k"}
	vals := []string{"", "1", "1.0", "01", " 2 ", "2.5", "x", "abc", "NaN"}
	var sb strings.Builder
	var elem func(depth int)
	elem = func(depth int) {
		name := names[rng.Intn(len(names))]
		sb.WriteString("<" + name)
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, ` %s="%s"`, a, vals[rng.Intn(len(vals))])
			}
		}
		sb.WriteString(">")
		if rng.Intn(4) == 0 {
			sb.WriteString(vals[rng.Intn(len(vals))])
		}
		if depth < 4 {
			for i := rng.Intn(4); i > 0; i-- {
				elem(depth + 1)
			}
		}
		sb.WriteString("</" + name + ">")
	}
	sb.WriteString(`<r xmlns:p="urn:p" xmlns:q="urn:q" k="1">`)
	for i := 2 + rng.Intn(4); i > 0; i-- {
		elem(1)
	}
	sb.WriteString("</r>")
	return xmldoc.MustParse(sb.String())
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
	for limit := 1; limit < 10_000; limit++ {
		if _, err := q.Eval(&Options{Context: d, MaxSteps: limit}); err == nil {
			return limit
		} else if !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("%s: %v", q.Source(), err)
		}
	}
	t.Fatalf("%s: no limit under 10000 suffices", q.Source())
	return 0
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
