package xq

import (
	"fmt"
	"testing"

	"wsda/internal/xmldoc"
)

// emitLog evaluates q with Emit and Held set and returns what the consumer
// saw, in order: "held" for the Held call, each item's string value
// otherwise. stopAfter > 0 makes Emit refuse after that many items.
func emitLog(t *testing.T, q *Query, opts Options, stopAfter int) []string {
	t.Helper()
	var log []string
	items := 0
	opts.Emit = func(it Item) bool {
		log = append(log, StringValue(it))
		items++
		return stopAfter == 0 || items < stopAfter
	}
	opts.Held = func() { log = append(log, "held") }
	if _, err := q.Eval(&opts); err != nil {
		t.Fatalf("%s: %v", q.Source(), err)
	}
	return log
}

// TestHeldMarksOnlyItemsAlreadyHeld: Held comes once, right before the
// first item, for exactly the results that exist together before any is
// emitted — a sorted FLWOR's after its sort and a non-FLWOR query's final
// sequence — and never for a FLWOR that emits per binding, however its
// return clause computes each binding's items. Streamed items equal the
// buffered result in every case.
func TestHeldMarksOnlyItemsAlreadyHeld(t *testing.T) {
	d := doc(t)
	for _, c := range []struct {
		src  string
		held bool
	}{
		{`for $s in //service return string($s/@name)`, false},
		{`for $s in //service order by number($s/load) return string($s/@name)`, true},
		{`for $s in //service order by string($s/@name) descending return $s/@domain`, true},
		{`//service/@name`, true},
		{`count(//service)`, true},
		{`if (true()) then for $s in //service return string($s/@name) else ()`, true},
		// A FLWOR inside a sequence is part of a non-FLWOR result: it no
		// longer emits ahead of the items before it.
		{`("first", for $s in //service return string($s/@name))`, true},
		{`("first", for $s in //service order by string($s/@name) return string($s/@name), "last")`, true},
		// An ordered FLWOR in a return clause sorts one binding's items;
		// the top-level FLWOR still emits binding by binding.
		{`for $d in ("a", "b") return (for $x in (2, 1) order by $x return concat($d, $x))`, false},
		{`declare variable $n := 3; for $i in 1 to $n order by -$i return $i`, true},
	} {
		q := MustCompile(c.src)
		want, err := q.EvalDoc(d)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		var wantLog []string
		if c.held {
			wantLog = append(wantLog, "held")
		}
		for _, it := range want {
			wantLog = append(wantLog, StringValue(it))
		}
		if got := emitLog(t, q, Options{Context: d}, 0); fmt.Sprint(got) != fmt.Sprint(wantLog) {
			t.Errorf("%s:\nconsumer saw %q\nwant         %q", c.src, got, wantLog)
		}
	}
}

// TestHeldRunStopsEarly: a consumer that refuses an item inside a held run
// ends the evaluation there, without error.
func TestHeldRunStopsEarly(t *testing.T) {
	q := MustCompile(`for $i in 1 to 50 order by -$i return $i`)
	got := emitLog(t, q, Options{}, 5)
	if want := "[held 50 49 48 47 46]"; fmt.Sprint(got) != want {
		t.Errorf("consumer saw %v, want %s", got, want)
	}
}

// TestHeldNeverMarksASourcedWalk: a query over a tuple source emits each
// result as the walk finds it, so it never calls Held.
func TestHeldNeverMarksASourcedWalk(t *testing.T) {
	root := doc(t).DocumentElement()
	q := MustCompile(`/tupleset/tuple/content/service/@name`)
	got := emitLog(t, q, Options{Tuples: func(visit func(*xmldoc.Node) bool) {
		for _, m := range root.ChildElements() {
			if !visit(m) {
				return
			}
		}
	}}, 0)
	if want := "[replica-catalog scheduler storage]"; fmt.Sprint(got) != want {
		t.Errorf("consumer saw %v, want %s", got, want)
	}
}
