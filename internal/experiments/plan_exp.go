package experiments

import (
	"fmt"
	"time"

	"wsda/internal/registry"
	"wsda/internal/workload"
	"wsda/internal/xq"
)

// E19QueryPlanner measures the pushdown query planner (ISSUE 7): per store
// size, the cost of answering plannable discovery queries straight from
// the soft-state store — link-index hit, type-index hit, and full store
// scan with residual predicates — against the pre-planner cost of a
// discovery query: materializing the tuple set from scratch (BuildView) and
// interpreting over it. The planned figures must stay flat or proportional
// to the result, while the from-scratch cost grows with the store; the
// speedup column is their ratio for the link-hit query.
func E19QueryPlanner(sizes []int, iters int) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Softstate index pushdown vs interpreted view path",
		Note: "link/type/scan = plannable queries answered through the store's indexes\n" +
			"(warm plan cache); view-stream = one from-scratch BuildView plus a streamed\n" +
			"interpretation per iteration, the pre-planner cost of every discovery\n" +
			"query; speedup = view-stream / link.",
		Header: []string{"tuples", "link", "type", "scan", "view-stream", "speedup", "plan-hits", "fallbacks"},
	}
	for _, n := range sizes {
		gen := workload.NewGen(19)
		reg := registry.New(registry.Config{Name: "e19", DefaultTTL: time.Hour})
		if err := gen.Populate(reg, n, time.Hour); err != nil {
			return nil, err
		}
		link := gen.Tuple(0).Link
		queries := map[string]string{
			"link": fmt.Sprintf(`/tupleset/tuple[@link=%q]/@type`, link),
			"type": `/tupleset/tuple[@type="service"][@ctx="child"]/@link`,
			"scan": `/tupleset/tuple[content/service/@domain="cern.ch"]/@link`,
		}
		timed := func(src string, opts registry.QueryOptions) (time.Duration, error) {
			// One untimed run primes the compiled-query and plan caches.
			if _, err := reg.Query(src, opts); err != nil {
				return 0, err
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := reg.Query(src, opts); err != nil {
					return 0, err
				}
			}
			return time.Since(start) / time.Duration(iters), nil
		}
		cost := map[string]time.Duration{}
		for name, src := range queries {
			d, err := timed(src, registry.QueryOptions{})
			if err != nil {
				return nil, fmt.Errorf("E19 %s: %w", name, err)
			}
			cost[name] = d
		}
		// The comparator: no query path materializes a tuple set per
		// evaluation any more, so the pre-planner cost is spelled out.
		sink := func(xq.Item) bool { return true }
		fallback := `string(/tupleset/@registry)`
		q, err := xq.Compile(fallback)
		if err != nil {
			return nil, fmt.Errorf("E19 view-stream: %w", err)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			view := reg.BuildView(registry.Filter{}, registry.Freshness{})
			if _, err := q.Eval(&xq.Options{Context: view, Emit: sink}); err != nil {
				return nil, fmt.Errorf("E19 view-stream: %w", err)
			}
		}
		viewCost := time.Since(start) / time.Duration(iters)
		// The same query through the registry is interpreted over a pinned
		// tuple set and must be counted as a planner fallback.
		if _, err := reg.Query(fallback, registry.QueryOptions{Emit: sink}); err != nil {
			return nil, fmt.Errorf("E19 view-stream: %w", err)
		}
		speedup := float64(viewCost) / float64(cost["link"])
		st := reg.Stats()
		if st.PlanHits == 0 || st.PlanFallbacks == 0 {
			return nil, fmt.Errorf("E19: plan accounting hits=%d fallbacks=%d, want both > 0",
				st.PlanHits, st.PlanFallbacks)
		}
		t.Add(fint(n), fdur(cost["link"]), fdur(cost["type"]), fdur(cost["scan"]),
			fdur(viewCost), fmt.Sprintf("%.0fx", speedup),
			fint64(st.PlanHits), fint64(st.PlanFallbacks))
	}
	return t, nil
}
