package registry_test

import (
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/workload"
	"wsda/internal/xq"
)

// TestViewMixKeepsItsMemo runs the view-xquery benchmark's mix in process
// over 1 000 tuples: per generation Q7 seven times, two of Q6, Q8 and Q10
// in rotation, so each skips every third generation, and one refresh. Past
// the first two generations, which build what the mix reads, an advance
// costs at most one build (the rank map, which is never carried): a set a
// query reads every other generation is carried through the one it skips,
// and nothing the rotation reads is ever dropped.
func TestViewMixKeepsItsMemo(t *testing.T) {
	r := registry.New(registry.Config{Name: "mix", DefaultTTL: time.Hour})
	gen := workload.NewGen(1)
	if err := gen.Populate(r, 1000, time.Hour); err != nil {
		t.Fatal(err)
	}
	q7 := xq.MustCompile(workload.CanonicalQueries[6].XQ)
	rotation := []*xq.Query{
		xq.MustCompile(workload.CanonicalQueries[5].XQ),
		xq.MustCompile(workload.CanonicalQueries[7].XQ),
		xq.MustCompile(workload.CanonicalQueries[9].XQ),
	}
	var before registry.Stats
	for g := 0; g < 60; g++ {
		if g == 2 {
			before = r.Stats()
		}
		for _, q := range []*xq.Query{q7, q7, q7, q7, q7, q7, q7, rotation[2*g%3], rotation[(2*g+1)%3]} {
			if _, err := r.QueryCompiled(q, registry.QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Publish(gen.Tuple(g%50), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	advances, builds := st.ViewRebuilds-before.ViewRebuilds, st.MemoBuilds-before.MemoBuilds
	t.Logf("%d advances: %d builds, %d carried, %d dropped, %d hits", advances, builds, st.MemoCarries-before.MemoCarries, st.MemoDrops, st.MemoHits-before.MemoHits)
	if advances < 50 || builds > advances || st.MemoDrops != 0 {
		t.Errorf("%d advances, %d memo builds, %d dropped: want at most one build an advance and no drop", advances, builds, st.MemoDrops)
	}
}
