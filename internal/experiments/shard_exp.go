package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// e20Buckets is the number of distinct @type values in the E20 dataset: a
// bucket query selects 1/200th of the population through the type index on
// every topology.
const e20Buckets = 200

// E20ShardScaleOut measures the sharded hyper registry (ISSUE 8): the
// same tuple population is served by 1..N partition registries behind the
// rendezvous partition function, and per shard count the table reports
// modeled aggregate publish throughput, modeled aggregate scatter-query
// throughput, and the real streamed first-item latency through the
// scatter-gather router against a direct single-store evaluation.
//
// Aggregate throughput is modeled the way sharded capacity is deployed:
// each shard's share of the workload is timed in isolation on this host,
// and the aggregate is total-ops divided by the slowest shard's wall
// time — what N independent nodes would sustain, free of the
// single-machine CPU multiplexing that would otherwise make every
// in-process topology sum to the same total work. The router's own merge
// overhead is measured separately (and for real) by the first-item
// column, which drives the full streamed scatter-gather HTTP handler
// over in-process backends.
func E20ShardScaleOut(shardCounts []int, total, queries int) (*Table, error) {
	if len(shardCounts) == 0 || shardCounts[0] != 1 {
		return nil, fmt.Errorf("E20: shardCounts must start with the single-node baseline 1, got %v", shardCounts)
	}
	t := &Table{
		ID:    "E20",
		Title: "Sharded registry scale-out: partitioned stores behind a scatter-gather router",
		Note: "load/query = modeled aggregate throughput (total ops / slowest shard's\n" +
			"isolated wall time, i.e. N independent nodes); load-x/query-x = speedup\n" +
			"vs the 1-shard baseline. first-item = real streamed first-item latency\n" +
			"through the router's scatter-gather merge over in-process backends for\n" +
			"a match-all (view-path) query; vs-direct = that latency over a direct\n" +
			"single-store evaluation of the full dataset (acceptance bound 2.0x).\n" +
			"On one core the shards' view builds time-slice, so vs-direct ~1x here;\n" +
			"on a multi-node deployment each shard materializes 1/N of the view.",
		Header: []string{"shards", "tuples", "load", "load-x", "query", "query-x", "first-item", "vs-direct"},
	}

	// One tuple population, partitioned by the same rendezvous function the
	// router uses. Content-free tuples keep the experiment about routing
	// and store costs, not XML codec throughput.
	tuples := make([]*tuple.Tuple, total)
	bucketCount := make([]int, e20Buckets)
	for i := range tuples {
		b := i % e20Buckets
		tuples[i] = &tuple.Tuple{
			Link:    fmt.Sprintf("http://node-%07d.example.org/wsda/presenter", i),
			Type:    fmt.Sprintf("t%03d", b),
			Context: "child",
		}
		bucketCount[b]++
	}
	srcs := make([]string, e20Buckets)
	for b := range srcs {
		srcs[b] = fmt.Sprintf(`/tupleset/tuple[@type="t%03d"]`, b)
	}
	expectedItems := 0
	for qi := 0; qi < queries; qi++ {
		expectedItems += bucketCount[qi%e20Buckets]
	}

	const matchAll = `/tupleset/tuple`
	ctx := context.Background()
	var baseLoad, baseQuery, directFirst time.Duration
	for _, n := range shardCounts {
		// Partition once up front: the routing decision is the router
		// tier's O(1) rendezvous hash, not shard work, so it is kept out
		// of the per-shard capacity timing.
		parts := make([][]*tuple.Tuple, n)
		for _, tp := range tuples {
			owner := shard.Owner(tp.Link, n)
			parts[owner] = append(parts[owner], tp)
		}
		backends := make([]shard.Backend, n)
		regs := make([]*registry.Registry, n)
		for s := 0; s < n; s++ {
			regs[s] = registry.New(registry.Config{
				Name:       fmt.Sprintf("e20-s%d", s),
				DefaultTTL: time.Hour,
			})
			backends[s] = &shard.LocalBackend{Label: fmt.Sprintf("s%d", s), Reg: regs[s]}
		}

		// Load phase: each shard ingests its partition, timed in isolation.
		var maxLoad time.Duration
		for s := 0; s < n; s++ {
			start := time.Now()
			for _, tp := range parts[s] {
				if _, err := backends[s].Publish(ctx, tp, time.Hour); err != nil {
					return nil, fmt.Errorf("E20 load shard %d/%d: %w", s, n, err)
				}
			}
			if d := time.Since(start); d > maxLoad {
				maxLoad = d
			}
		}
		stored := 0
		for s := 0; s < n; s++ {
			stored += regs[s].Len()
		}
		if stored != total {
			return nil, fmt.Errorf("E20: %d shards store %d tuples, want %d", n, stored, total)
		}
		loadAgg := float64(total) / maxLoad.Seconds()

		// Query phase: every bucket query scatters to every shard, so each
		// shard answers all Q queries over its 1/N share of each bucket.
		var maxQ time.Duration
		delivered := 0
		sink := func(xq.Item) bool { return true }
		for s := 0; s < n; s++ {
			start := time.Now()
			for qi := 0; qi < queries; qi++ {
				sum, err := backends[s].QueryStream(ctx,
					shard.QuerySpec{Query: srcs[qi%e20Buckets]}, nil, sink)
				if err != nil {
					return nil, fmt.Errorf("E20 query shard %d/%d: %w", s, n, err)
				}
				delivered += sum.Count
			}
			if d := time.Since(start); d > maxQ {
				maxQ = d
			}
		}
		if delivered != expectedItems {
			return nil, fmt.Errorf("E20: %d shards delivered %d items across %d queries, want %d",
				n, delivered, queries, expectedItems)
		}
		queryAgg := float64(queries) / maxQ.Seconds()

		// First-item phase: the real router, the real streamed merge. A
		// match-all query forces the view path, so the latency reflects
		// materialization cost, and the writer cancels the scatter at the
		// first body byte.
		if n == 1 {
			var first time.Time
			start := time.Now()
			if _, err := regs[0].Query(matchAll, registry.QueryOptions{
				Emit: func(xq.Item) bool { first = time.Now(); return false },
			}); err != nil {
				return nil, fmt.Errorf("E20 direct first-item: %w", err)
			}
			if first.IsZero() {
				return nil, fmt.Errorf("E20 direct first-item: query emitted nothing")
			}
			directFirst = first.Sub(start)
		}
		rt := shard.NewRouter(shard.Config{Backends: backends})
		h := rt.Handler()
		cctx, cancel := context.WithCancel(ctx)
		w := &firstByteWriter{h: make(http.Header), cancel: cancel}
		req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true",
			strings.NewReader(matchAll)).WithContext(cctx)
		start := time.Now()
		h.ServeHTTP(w, req)
		cancel()
		if w.first.IsZero() {
			return nil, fmt.Errorf("E20: routed match-all over %d shards streamed nothing", n)
		}
		routedFirst := w.first.Sub(start)

		if n == 1 {
			baseLoad, baseQuery = maxLoad, maxQ
		}
		t.Add(fint(n), fint(total),
			frate(total, maxLoad), fmt.Sprintf("%.2fx", loadAgg/(float64(total)/baseLoad.Seconds())),
			frate(queries, maxQ), fmt.Sprintf("%.2fx", queryAgg/(float64(queries)/baseQuery.Seconds())),
			fdur(routedFirst), fmt.Sprintf("%.2fx", float64(routedFirst)/float64(directFirst)))
	}
	return t, nil
}

// firstByteWriter is a discarding http.ResponseWriter that stamps the
// first body write and cancels the request context, so a streamed
// first-item measurement does not pay for draining the full result.
type firstByteWriter struct {
	h      http.Header
	first  time.Time
	cancel context.CancelFunc
}

// Header implements http.ResponseWriter.
func (w *firstByteWriter) Header() http.Header { return w.h }

// WriteHeader implements http.ResponseWriter.
func (w *firstByteWriter) WriteHeader(int) {}

// Flush implements http.Flusher so the stream writer flushes per item.
func (w *firstByteWriter) Flush() {}

// Write discards the payload, recording the first-byte time and
// cancelling the in-flight scatter on first call.
func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
		if w.cancel != nil {
			w.cancel()
		}
	}
	return len(p), nil
}
