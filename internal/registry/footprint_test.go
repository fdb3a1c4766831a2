package registry_test

import (
	"runtime"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/workload"
)

// TestStoreFootprint measures what the heap holds per tuple: published
// (the stored tuple) and once one query has rendered every member (the
// tuple plus its frozen <tuple> element and the pinned set listing it),
// read after a forced GC. The rendered figures are bounded at the
// measured value plus 10 %: 14 759 B and 170.7 objects with the frozen
// rendering, whose text and spans add 1 650 B and 3 pointer-free objects
// to the 13 109 B and 167.7 objects of a rendering walked on every
// answer. A stored tuple holds 6 313 B and 81 objects.
func TestStoreFootprint(t *testing.T) {
	const (
		n          = 2000
		maxBytes   = 16_235 // rendered, per tuple
		maxObjects = 187.8
	)
	heap := func() (bytes, objects float64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc), float64(ms.HeapObjects)
	}
	b0, o0 := heap()
	r := registry.New(registry.Config{Name: "footprint", DefaultTTL: time.Hour})
	if err := workload.NewGen(1).Populate(r, n, time.Hour); err != nil {
		t.Fatal(err)
	}
	b1, o1 := heap()
	seq, err := r.Query("/tupleset/tuple", registry.QueryOptions{})
	if err != nil || len(seq) != n {
		t.Fatalf("query returned %d items (%v), want %d", len(seq), err, n)
	}
	seq = nil
	b2, o2 := heap()
	runtime.KeepAlive(r)

	stored, storedObjs := (b1-b0)/n, (o1-o0)/n
	rendered, renderedObjs := (b2-b0)/n, (o2-o0)/n
	t.Logf("per tuple: stored %.0f B / %.1f objects, rendered %.0f B / %.1f objects",
		stored, storedObjs, rendered, renderedObjs)
	if rendered > maxBytes || renderedObjs > maxObjects {
		t.Errorf("a rendered tuple holds %.0f B and %.1f heap objects, bound %d B and %.1f",
			rendered, renderedObjs, maxBytes, maxObjects)
	}
}
