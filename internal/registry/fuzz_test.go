package registry_test

import (
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/workload"
	"wsda/internal/xq"
)

// FuzzCanonicalQuerySource checks the compiled-query cache's key. The
// registry compiles a query once per canonical source and answers every
// spelling of it with that one compiled query, so canonicalising must be
// idempotent and must not change what a query means: whether it compiles,
// and what it returns over a fixed five-tuple tuple set.
func FuzzCanonicalQuerySource(f *testing.F) {
	for _, in := range registry.CanonicalInputs() {
		f.Add(in)
	}
	for _, cq := range workload.CanonicalQueries {
		f.Add(cq.XQ)
	}
	reg := registry.New(registry.Config{Name: "fuzz", Now: func() time.Time { return time.UnixMilli(0) }})
	if err := workload.NewGen(1).Populate(reg, 5, time.Hour); err != nil {
		f.Fatal(err)
	}
	view := reg.BuildView(registry.Filter{}, registry.Freshness{})
	eval := func(q *xq.Query) (string, error) {
		seq, err := q.Eval(&xq.Options{Context: view, MaxSteps: 50_000})
		if len(seq) > 1000 {
			seq = seq[:1000] // Serialize is quadratic; a prefix tells two answers apart
		}
		return xq.Serialize(seq), err
	}
	f.Fuzz(func(t *testing.T, src string) {
		canon := registry.CanonicalQuerySource(src)
		if again := registry.CanonicalQuerySource(canon); again != canon {
			t.Fatalf("not idempotent: %q -> %q -> %q", src, canon, again)
		}
		q, err := xq.Compile(src)
		qc, errc := xq.Compile(canon)
		if (err == nil) != (errc == nil) {
			t.Fatalf("%q compiles with err %v, its canonical form %q with err %v", src, err, canon, errc)
		}
		if err != nil {
			return
		}
		got, err := eval(q)
		gotc, errc := eval(qc)
		if (err == nil) != (errc == nil) || got != gotc {
			t.Fatalf("%q gives %q (err %v), its canonical form %q gives %q (err %v)", src, got, err, canon, gotc, errc)
		}
	})
}
