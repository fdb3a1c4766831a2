// Benchmarks regenerating the evaluation's tables and figures (experiments
// E1–E13, DESIGN.md) plus micro-benchmarks of the load-bearing components.
// Each experiment benchmark runs a reduced-scale instance per iteration;
// cmd/benchharness runs the full-scale versions and prints the tables.
package wsda_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/experiments"
	"wsda/internal/pdp"
	"wsda/internal/registry"
	"wsda/internal/sdk"
	"wsda/internal/shard"
	"wsda/internal/simnet"
	"wsda/internal/topology"
	"wsda/internal/tuple"
	"wsda/internal/updf"
	"wsda/internal/workload"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// --- Experiment benchmarks (one per table/figure) ---

func BenchmarkE1QueryTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1QueryTypes(200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Publish(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2Publish([]int{1000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Cache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3Cache(500, []int{0, 50, 100}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4SoftState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4SoftState(200, []float64{1.5, 2, 4}, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ResponseModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5ResponseModes(16, 100*time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5bSelectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5Selectivity(12, []int{1, 12}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Pipelining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6Pipelining([]int{8}, 500*time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Timeouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7Timeouts([]time.Duration{40 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8NeighborSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8NeighborSelection(48, []int{1, 2}, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9Containers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9Containers([]int{8}, time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10LoopDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10LoopDetection(32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E11Scalability([]int{64}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12WSDAPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E12WSDAPrimitives(200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13Federation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E13Federation([]int{8}, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks ---

func benchRegistry(b *testing.B, n int) *registry.Registry {
	b.Helper()
	reg := registry.New(registry.Config{Name: "bench", DefaultTTL: time.Hour})
	if err := workload.NewGen(1).Populate(reg, n, time.Hour); err != nil {
		b.Fatal(err)
	}
	return reg
}

func BenchmarkXQCompile(b *testing.B) {
	src := workload.CanonicalQueries[7].XQ // the complex grouping query
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xq.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile compiles all ten canonical queries per op: the front
// end a router runs on every query it routes, before any shard sees it.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range workload.CanonicalQueries {
			if _, err := xq.Compile(q.XQ); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkXQEvalSimple(b *testing.B) {
	benchXQEval(b, workload.CanonicalQueries[1].XQ, 1000)
}

func BenchmarkXQEvalMedium(b *testing.B) {
	benchXQEval(b, workload.CanonicalQueries[4].XQ, 1000)
}

func BenchmarkXQEvalComplex(b *testing.B) {
	benchXQEval(b, workload.CanonicalQueries[7].XQ, 1000)
}

func benchXQEval(b *testing.B, src string, n int) {
	b.Helper()
	reg := benchRegistry(b, n)
	view := reg.BuildView(registry.Filter{}, registry.Freshness{})
	q := xq.MustCompile(src)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.EvalDoc(view); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryPublish(b *testing.B) {
	gen := workload.NewGen(1)
	reg := registry.New(registry.Config{Name: "bench", DefaultTTL: time.Hour})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Publish(gen.Tuple(i%10000), time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryQuery1k(b *testing.B) {
	reg := benchRegistry(b, 1000)
	q := xq.MustCompile(`count(/tupleset/tuple)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryMinQuery1k(b *testing.B) {
	reg := benchRegistry(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := reg.MinQuery(registry.Filter{Type: "service"}); len(got) != 1000 {
			b.Fatal("bad count")
		}
	}
}

// BenchmarkRegistryMinQueryPrefix is a MinQuery by one full link as the
// prefix: a binary search of the pinned link-ordered tuple set, so
// cmd/benchguard holds its bytes/op far below one whole-store copy.
func BenchmarkRegistryMinQueryPrefix(b *testing.B) {
	reg := benchRegistry(b, 1000)
	f := registry.Filter{LinkPrefix: "http://cern.ch/replica-catalog-0000/wsda/presenter"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := reg.MinQuery(f); len(got) != 1 {
			b.Fatalf("got %d tuples", len(got))
		}
	}
}

// --- Tuple-set snapshot benchmarks (ISSUE 2 and 14 acceptance) ---
//
// The query is deliberately trivial (one attribute read) so the measured
// cost is materializing, pinning or advancing the tuple set, not XQuery
// evaluation.

const viewBenchQuery = `string(/tupleset/@registry)`

// BenchmarkViewQueryCold measures the from-scratch reference: a full
// BuildView per query (scan, sort, render every tuple, renumber) plus
// evaluation. No query path does this; it is what pinning saves.
func BenchmarkViewQueryCold(b *testing.B) {
	reg := benchRegistry(b, 1000)
	q := xq.MustCompile(viewBenchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := reg.BuildView(registry.Filter{}, registry.Freshness{})
		if _, err := q.EvalDoc(view); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewQueryWarm measures the steady state: repeated identical-filter
// queries against an unchanged 1000-tuple store, each pinning the current
// tuple set.
func BenchmarkViewQueryWarm(b *testing.B) {
	benchViewQueryWarm(b, viewBenchQuery, registry.QueryOptions{})
}

// BenchmarkViewQueryStreamed is the warm benchmark delivered through Emit —
// what routerd and the SDK send. It takes the same path as the buffered
// query, so cmd/benchguard holds it within 2x of BenchmarkViewQueryWarm.
func BenchmarkViewQueryStreamed(b *testing.B) {
	benchViewQueryWarm(b, viewBenchQuery, registry.QueryOptions{Emit: func(xq.Item) bool { return true }})
}

// BenchmarkViewQueryQ7 is the warm benchmark with the evaluator doing the
// work: canonical Q7 (for/where/order by over a predicated path), the
// unplannable query bench/'s view-xquery workload gates. cmd/benchguard
// holds its allocs/op under a fixed per-tuple budget.
func BenchmarkViewQueryQ7(b *testing.B) {
	benchViewQueryWarm(b, workload.CanonicalQueries[6].XQ, registry.QueryOptions{})
}

// BenchmarkViewQueryQ7Churn is BenchmarkViewQueryQ7 with one Publish (a
// refresh of one tuple) before each query: every Q7 finds a new store
// generation and advances the tuple set, and the advance carries the node
// list and index the last Q7 read to the new set's memo, walking only the
// refreshed member. cmd/benchguard holds it to Q7's per-tuple budget and
// its time to 1.6 times warm Q7's.
func BenchmarkViewQueryQ7Churn(b *testing.B) {
	reg := benchRegistry(b, 1000)
	refresh := workload.NewGen(1).Tuple(0)
	q := xq.MustCompile(workload.CanonicalQueries[6].XQ)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Publish(refresh, time.Hour); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewQueryQ7Shift is BenchmarkViewQueryQ7 with an Unpublish and
// the Publish of a new link before each query, alternating two tuples:
// every Q7 finds a new store generation in which the members between the
// two links sit one position off where the last one had them, so the
// memo's carry moves index positions, where Q7Churn replaces one member
// in place. cmd/benchguard holds both to Q7's time.
func BenchmarkViewQueryQ7Shift(b *testing.B) {
	reg := benchRegistry(b, 1000)
	gen := workload.NewGen(1)
	pair := [2]*tuple.Tuple{gen.Tuple(0), gen.Tuple(1000)}
	q := xq.MustCompile(workload.CanonicalQueries[6].XQ)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Unpublish(pair[i%2].Link)
		if _, err := reg.Publish(pair[(i+1)%2], time.Hour); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewQueryQ3 is canonical Q3, the headed scan a sharded registry
// scatters to every shard, streamed through Emit over 1000 tuples. Nothing
// is pushed down, so it is evaluated over the pinned Filter{} set and,
// warm, reads its node list from the set's memo instead of walking every
// member. cmd/benchguard holds its allocs/op, and its time to a fraction
// of BenchmarkViewQueryCold's that a walk of every member would exceed.
func BenchmarkViewQueryQ3(b *testing.B) {
	benchViewQueryWarm(b, workload.CanonicalQueries[2].XQ, registry.QueryOptions{Emit: func(xq.Item) bool { return true }})
}

// BenchmarkViewQueryQ3Churn is BenchmarkViewQueryQ3 with one Publish (a
// refresh of one tuple) before each query: every Q3 advances the tuple set,
// and the advance carries Q3's node list, walking only the refreshed
// member. cmd/benchguard holds it as it holds BenchmarkViewQueryQ3.
func BenchmarkViewQueryQ3Churn(b *testing.B) {
	reg := benchRegistry(b, 1000)
	refresh := workload.NewGen(1).Tuple(0)
	q := xq.MustCompile(workload.CanonicalQueries[2].XQ)
	opts := registry.QueryOptions{Emit: func(xq.Item) bool { return true }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Publish(refresh, time.Hour); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.QueryCompiled(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewQueryQ8 and Q9 are the warm benchmark over the two
// set-at-a-time shapes: canonical Q8 groups by an equality probe, Q9 joins
// two invariant sources through one. cmd/benchguard holds each under a
// per-tuple allocation budget.
func BenchmarkViewQueryQ8(b *testing.B) {
	benchViewQueryWarm(b, workload.CanonicalQueries[7].XQ, registry.QueryOptions{})
}

func BenchmarkViewQueryQ9(b *testing.B) {
	benchViewQueryWarm(b, workload.CanonicalQueries[8].XQ, registry.QueryOptions{})
}

func benchViewQueryWarm(b *testing.B, src string, opts registry.QueryOptions) {
	b.Helper()
	reg := benchRegistry(b, 1000)
	q := xq.MustCompile(src)
	if _, err := reg.QueryCompiled(q, opts); err != nil {
		b.Fatal(err) // build the tuple set
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.QueryCompiled(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewQueryChurn republishes a fixed number of tuples between
// queries. Similar ns/op across store sizes demonstrates that an advance
// re-renders only the changed tuples; what grows with the store is a
// pointer copy of the unchanged entries.
func BenchmarkViewQueryChurn(b *testing.B) {
	const churn = 10
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			gen := workload.NewGen(1)
			reg := registry.New(registry.Config{Name: "bench", DefaultTTL: time.Hour})
			if err := gen.Populate(reg, n, time.Hour); err != nil {
				b.Fatal(err)
			}
			q := xq.MustCompile(viewBenchQuery)
			if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < churn; j++ {
					if _, err := reg.Publish(gen.Tuple((i*churn+j)%n), time.Hour); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Query-planner benchmarks (ISSUE 7 acceptance) ---
//
// BenchmarkPlannedQueryCold measures a discovery query from source text:
// compile, plan, and answer from the link index — no tuple set is pinned.
// BenchmarkPlannedQueryWarm is the steady state (a compiled query, the
// revision's shared element); its allocs/op is the guarded budget.
// BenchmarkPlanFallback is the comparator: the pre-planner cost of a
// discovery query on the same store, a from-scratch BuildView plus a
// streamed interpretation per evaluation (spelled out here because no
// query path materializes per evaluation any more). The speedup of
// PlannedQueryCold over PlanFallback is the acceptance ratio enforced by
// cmd/benchguard.

const plannedBenchQuery = `/tupleset/tuple[@link="http://cern.ch/replica-catalog-0000/wsda/presenter"]/@type`

func BenchmarkPlannedQueryCold(b *testing.B) {
	reg := benchRegistry(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := xq.Compile(plannedBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		seq, err := reg.QueryCompiled(q, registry.QueryOptions{})
		if err != nil || len(seq) != 1 {
			b.Fatalf("seq=%d err=%v", len(seq), err)
		}
	}
}

func BenchmarkPlannedQueryWarm(b *testing.B) {
	reg := benchRegistry(b, 1000)
	q := xq.MustCompile(plannedBenchQuery)
	if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
		b.Fatal(err) // compile and render the tuple
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := reg.QueryCompiled(q, registry.QueryOptions{})
		if err != nil || len(seq) != 1 {
			b.Fatalf("seq=%d err=%v", len(seq), err)
		}
	}
}

// BenchmarkPlannedQueryScanPage is a first page of one: a planned scan
// whose Emit stops after two items, what page-size=1 does. The scan walks
// the pinned link-ordered tuple set and stops with the page, so
// cmd/benchguard holds its bytes/op far below one whole-store copy.
func BenchmarkPlannedQueryScanPage(b *testing.B) {
	reg := benchRegistry(b, 1000)
	q := xq.MustCompile(`/tupleset/tuple`)
	n := 0
	opts := registry.QueryOptions{Emit: func(xq.Item) bool { n++; return n < 2 }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		if _, err := reg.QueryCompiled(q, opts); err != nil || n != 2 {
			b.Fatalf("items=%d err=%v", n, err)
		}
	}
}

func BenchmarkPlanFallback(b *testing.B) {
	reg := benchRegistry(b, 1000)
	q := xq.MustCompile(viewBenchQuery)
	sink := func(xq.Item) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := reg.BuildView(registry.Filter{}, registry.Freshness{})
		if _, err := q.Eval(&xq.Options{Context: view, Emit: sink}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLexer drives the table-driven DFA scanner over the most
// complex canonical query, bytes/op reported via SetBytes.
func BenchmarkLexer(b *testing.B) {
	src := workload.CanonicalQueries[7].XQ
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xq.ScanTokens(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming benchmarks (ISSUE 6 acceptance) ---
//
// BenchmarkStreamWriteItem guards the per-item hot path of the chunked
// HTTP stream encoder: rendering and writing one already-evaluated item
// (WriteItem alone does not flush; Delivery decides when bytes leave) must
// stay a small constant number of allocations, or large result streams
// turn into GC pressure at the edge. BenchmarkStreamHeldRun counts the
// flushes of a streamed Q7: its sorted answer is held together, so it
// leaves in two (the first item, then the rest with the trailer) however
// many items it has. BenchmarkStreamFirstItem tracks time-to-first-item of
// a pipelined streamed network query over an 8-node chain — the latency
// the first-item SLO is about.

// discardWriter is an http.ResponseWriter that throws the body away, so
// the write benchmark measures encoding, not buffer growth.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

func BenchmarkStreamWriteItem(b *testing.B) {
	el := xmldoc.MustParse(`<service name="bench" owner="wsda"><op>query</op></service>`).DocumentElement()
	sw := wsda.NewStreamWriter(&discardWriter{h: make(http.Header)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.WriteItem(el); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamWriteSharedItem is BenchmarkStreamWriteItem over what Q3
// emits: the <service> of a registry-rendered tuple, about 1 KB against
// that benchmark's 56-byte parsed element. The rendering is frozen, so
// WriteItem copies its span of the revision's bytes instead of walking and
// escaping the tree. cmd/benchguard holds it at no allocations and its
// time to a multiple of StreamWriteItem's that a copy meets and a walk
// misses.
func BenchmarkStreamWriteSharedItem(b *testing.B) {
	seq, err := benchRegistry(b, 100).Query(workload.CanonicalQueries[2].XQ, registry.QueryOptions{})
	if err != nil || len(seq) == 0 {
		b.Fatalf("Q3 returned %d items (%v)", len(seq), err)
	}
	el := seq[0].(*xmldoc.Node)
	sw := wsda.NewStreamWriter(&discardWriter{h: make(http.Header)})
	b.SetBytes(int64(len(el.String())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.WriteItem(el); err != nil {
			b.Fatal(err)
		}
	}
}

// flushCounter is a discardWriter that counts flushes.
type flushCounter struct {
	discardWriter
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

func BenchmarkStreamHeldRun(b *testing.B) {
	h := wsda.Handler(&wsda.LocalNode{Registry: benchRegistry(b, 1000)})
	w := &flushCounter{discardWriter: discardWriter{h: make(http.Header)}}
	run := func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true",
			strings.NewReader(workload.CanonicalQueries[6].XQ)))
	}
	run() // pin the tuple set and fill its memo
	w.flushes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/op")
}

func BenchmarkStreamFirstItem(b *testing.B) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	gen := workload.NewGen(1)
	cluster, err := updf.BuildCluster(topology.Line(8), updf.ClusterConfig{
		Net: net,
		RegistryFor: func(i int) *registry.Registry {
			r := registry.New(registry.Config{Name: fmt.Sprintf("r%d", i), DefaultTTL: time.Hour})
			if _, err := r.Publish(gen.Tuple(i), time.Hour); err != nil {
				b.Fatal(err)
			}
			return r
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	orig, err := updf.NewOriginator("bench-orig", net, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer orig.Close()
	var totalFirst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		var first time.Duration
		rs, err := orig.Submit(updf.QuerySpec{
			Query: `count(/tupleset/tuple)`, Entry: "node/0", Mode: pdp.Routed, Radius: -1,
			Pipeline:    true,
			LoopTimeout: 30 * time.Second, AbortTimeout: 15 * time.Second,
			OnItem: func(it xq.Item, source string) bool {
				if first == 0 {
					first = time.Since(start)
				}
				return true
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Items) != 8 {
			b.Fatalf("hits = %d", len(rs.Items))
		}
		totalFirst += first
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFirst.Nanoseconds())/float64(b.N), "first-item-ns/op")
	}
}

// BenchmarkDecodeStream is the client's half of a streamed scatter: a
// canned 334-item stream (the routed-scatter workload's size) framed and
// parsed into trees. ns/op and allocs/op divided
// by items/op are the per-item cost of DecodeStream.
func BenchmarkDecodeStream(b *testing.B) {
	benchDecode(b, 334, func(r io.Reader, onItem func()) (*wsda.StreamSummary, error) {
		return wsda.DecodeStream(r, func(xq.Item) bool { onItem(); return true })
	})
}

// BenchmarkDecodeStreamOne is the client's half of a point lookup: the
// same stream with one item, where per-stream costs dominate.
func BenchmarkDecodeStreamOne(b *testing.B) {
	benchDecode(b, 1, func(r io.Reader, onItem func()) (*wsda.StreamSummary, error) {
		return wsda.DecodeStream(r, func(xq.Item) bool { onItem(); return true })
	})
}

// BenchmarkDecodeRawStream is the router's half: the same stream framed
// into raw items and nothing more, what HTTPBackend does per shard.
func BenchmarkDecodeRawStream(b *testing.B) {
	benchDecode(b, 334, func(r io.Reader, onItem func()) (*wsda.StreamSummary, error) {
		return wsda.DecodeRawStream(r, func(wsda.RawItem) bool { onItem(); return true })
	})
}

func benchDecode(b *testing.B, items int, decode func(r io.Reader, onItem func()) (*wsda.StreamSummary, error)) {
	gen := workload.NewGen(1)
	rec := httptest.NewRecorder()
	sw := wsda.NewStreamWriter(rec)
	for i := 0; i < items; i++ {
		if err := sw.WriteItem(gen.Service(i).ToXML()); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Close(wsda.StreamSummary{Complete: true}); err != nil {
		b.Fatal(err)
	}
	stream := rec.Body.Bytes()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		sum, err := decode(bytes.NewReader(stream), func() { n++ })
		if err != nil || n != items || !sum.Complete {
			b.Fatalf("decoded %d items, summary %+v, err %v", n, sum, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(items), "items/op")
}

func BenchmarkXMLParse(b *testing.B) {
	src := workload.NewGen(1).Service(0).String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xmldoc.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLSerialize(b *testing.B) {
	doc := xmldoc.MustParse(workload.NewGen(1).Service(0).String())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if doc.String() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkPDPCodec(b *testing.B) {
	msg := &pdp.Message{
		Kind: pdp.KindQuery, TxID: "orig#1", From: "a", To: "b", Hop: 3,
		Query: workload.CanonicalQueries[4].XQ, Mode: pdp.Metadata,
		Origin: "orig", Scope: pdp.Scope{Radius: 7, Policy: "flood"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := msg.Encode()
		if _, err := pdp.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryConcurrentMixed(b *testing.B) {
	// Parallel publishers refreshing a 1k-tuple set while queriers scan it
	// — the registry's steady-state workload.
	reg := benchRegistry(b, 1000)
	gen := workload.NewGen(1)
	q := xq.MustCompile(`count(/tupleset/tuple[@type="service"])`)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%4 == 0 {
				if _, err := reg.Publish(gen.Tuple(i%1000), time.Hour); err != nil {
					b.Error(err)
					return
				}
			} else {
				if _, err := reg.QueryCompiled(q, registry.QueryOptions{}); err != nil {
					b.Error(err)
					return
				}
			}
			i++
		}
	})
}

func BenchmarkWSDAHTTPRoundTrip(b *testing.B) {
	reg := benchRegistry(b, 100)
	node := &wsdaLocalNode{reg}
	srv := httptest.NewServer(wsda.Handler(node.ln()))
	defer srv.Close()
	client := wsda.NewClient(srv.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := client.XQuery(`count(/tupleset/tuple)`, registry.QueryOptions{})
		if err != nil || len(seq) != 1 {
			b.Fatalf("%v %v", seq, err)
		}
	}
}

// wsdaLocalNode builds a LocalNode lazily (keeps bench imports tidy).
type wsdaLocalNode struct{ reg *registry.Registry }

func (w *wsdaLocalNode) ln() *wsda.LocalNode {
	return &wsda.LocalNode{Desc: wsda.NewService("bench").Build(), Registry: w.reg}
}

// --- Sharded-router benchmarks (ISSUE 8 acceptance) ---
//
// BenchmarkDirectShardQueryWarm is the comparator: a streamed discovery
// query evaluated directly on one registry holding the full dataset,
// timing the first emitted item. BenchmarkRoutedQueryWarm pushes the same
// query through the full router HTTP handler — parse, route, scatter,
// merge, serialize — over in-process shard backends, timing the first
// result byte leaving the router. Both report mean first-item latency
// (first-item-ns/op); cmd/benchguard holds routed/direct FIRST-ITEM
// latency to at most 2x. The comparison is deliberately in-process: the
// shard-side HTTP hop is preexisting client/server code measured by its
// own suites, and running six concurrent codec actors in one benchmark
// process would measure CPU contention, not router overhead.
// BenchmarkShardMergeItem isolates the router merge hot path (local
// backends, no shard HTTP hop): one op delivers shardBenchLinks items
// through the streamed merge, and benchguard divides allocs/op by the
// item count to budget allocations per merged item.

// shardBenchLinks is large enough that per-shard evaluation, not the
// fixed per-hop HTTP cost, dominates first-item latency — the regime the
// 2x routed/direct guard is about (at toy sizes a ~1ms hop overhead
// swamps a ~1ms direct query and the ratio measures the transport).
const (
	shardBenchLinks = 2048
	shardBenchQuery = `/tupleset/tuple[@type="service"]`
)

// shardBenchRegs populates total tuples into n registries partitioned by
// shard.Owner, so the sharded topologies serve the same dataset as the
// single direct registry. Tuples are content-free metadata records — the
// discovery workload the router exists for — so the measured costs are
// routing, merge, and framing, not bulk content transfer.
func shardBenchRegs(b *testing.B, n int) []*registry.Registry {
	b.Helper()
	regs := make([]*registry.Registry, n)
	for i := range regs {
		regs[i] = registry.New(registry.Config{Name: fmt.Sprintf("shard%d", i), DefaultTTL: time.Hour})
	}
	for i := 0; i < shardBenchLinks; i++ {
		t := &tuple.Tuple{
			Link:    fmt.Sprintf("http://node-%04d.example.org/wsda/presenter", i),
			Type:    "service",
			Context: "child",
		}
		if _, err := regs[shard.Owner(t.Link, n)].Publish(t, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	return regs
}

func BenchmarkDirectShardQueryWarm(b *testing.B) {
	regs := shardBenchRegs(b, 1)
	q := xq.MustCompile(shardBenchQuery)
	runDirect := func() time.Duration {
		start := time.Now()
		var first time.Duration
		count := 0
		if _, err := regs[0].QueryCompiled(q, registry.QueryOptions{Emit: func(xq.Item) bool {
			if first == 0 {
				first = time.Since(start)
			}
			count++
			return true
		}}); err != nil {
			b.Fatal(err)
		}
		if count != shardBenchLinks {
			b.Fatalf("direct streamed %d items, want %d", count, shardBenchLinks)
		}
		return first
	}
	runDirect() // prime views and compiled-query caches
	var totalFirst time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalFirst += runDirect()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFirst.Nanoseconds())/float64(b.N), "first-item-ns/op")
	}
}

// firstWriteWriter is a discarding http.ResponseWriter that records when
// the first response-body byte is written — the router-side moment the
// first merged item becomes available to a client.
type firstWriteWriter struct {
	h     http.Header
	first time.Time
}

func (d *firstWriteWriter) Header() http.Header { return d.h }
func (d *firstWriteWriter) Write(p []byte) (int, error) {
	if d.first.IsZero() {
		d.first = time.Now()
	}
	return len(p), nil
}
func (d *firstWriteWriter) WriteHeader(int) {}
func (d *firstWriteWriter) Flush()          {}

func BenchmarkRoutedQueryWarm(b *testing.B) {
	regs := shardBenchRegs(b, 2)
	rt := shard.NewRouter(shard.Config{Backends: []shard.Backend{
		&shard.LocalBackend{Label: "s0", Reg: regs[0]},
		&shard.LocalBackend{Label: "s1", Reg: regs[1]},
	}})
	h := rt.Handler()
	runRouted := func() time.Duration {
		req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true",
			strings.NewReader(shardBenchQuery))
		w := &firstWriteWriter{h: make(http.Header)}
		start := time.Now()
		h.ServeHTTP(w, req)
		if w.first.IsZero() {
			b.Fatal("routed query wrote nothing")
		}
		return w.first.Sub(start)
	}
	runRouted() // prime shard views and compiled-query caches
	var totalFirst time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalFirst += runRouted()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFirst.Nanoseconds())/float64(b.N), "first-item-ns/op")
	}
}

func BenchmarkShardMergeItem(b *testing.B) {
	regs := shardBenchRegs(b, 2)
	rt := shard.NewRouter(shard.Config{Backends: []shard.Backend{
		&shard.LocalBackend{Label: "s0", Reg: regs[0]},
		&shard.LocalBackend{Label: "s1", Reg: regs[1]},
	}})
	h := rt.Handler()
	// Prime both shard views so steady-state merge cost is what's measured.
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true",
			strings.NewReader(shardBenchQuery))
		h.ServeHTTP(&discardWriter{h: make(http.Header)}, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true",
			strings.NewReader(shardBenchQuery))
		h.ServeHTTP(&discardWriter{h: make(http.Header)}, req)
	}
	b.StopTimer()
	b.ReportMetric(shardBenchLinks, "items/op")
}

// BenchmarkRoutedScatterHTTP is the deployed shape of the merge: the same
// scatter through a router whose two shards are registries behind real
// HTTP servers, reached through shard.HTTPBackend. One op frames and
// forwards shardBenchLinks items; flushes/item is how many flushes they
// took, the router flushing only before it reads a shard. The process
// also hosts the two shards, so allocs/op divided by items/op is an upper
// bound on the router's share per forwarded item, which benchguard holds
// to the same budget as the in-process merge.
func BenchmarkRoutedScatterHTTP(b *testing.B) {
	regs := shardBenchRegs(b, 2)
	backends := make([]shard.Backend, len(regs))
	for i, reg := range regs {
		srv := httptest.NewServer(wsda.Handler(&wsda.LocalNode{Registry: reg}))
		defer srv.Close()
		backends[i] = shard.NewHTTPBackend(srv.URL, srv.Client())
	}
	h := shard.NewRouter(shard.Config{Backends: backends}).Handler()
	w := &flushCounter{discardWriter: discardWriter{h: make(http.Header)}}
	scatter := func() {
		req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true",
			strings.NewReader(shardBenchQuery))
		h.ServeHTTP(w, req)
	}
	scatter() // prime shard views, compiled-query caches and keep-alive connections
	w.flushes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scatter()
	}
	b.StopTimer()
	b.ReportMetric(shardBenchLinks, "items/op")
	b.ReportMetric(float64(w.flushes)/float64(b.N)/shardBenchLinks, "flushes/item")
}

// --- Client-SDK benchmarks (ISSUE 10 acceptance) ---
//
// BenchmarkSDKCacheHit guards the SDK cache's warm read path: a Lookup
// served from the feed-invalidated cache must stay in the hundreds of
// nanoseconds with a tiny constant allocation count, or putting the SDK
// in front of the origin costs more than it saves. The paged/stream pair
// compares time-to-first-item of a cursor-paginated query (client buffers
// one page) against the same query streamed unpaginated (client sees the
// first item as it arrives); cmd/benchguard holds paged within 2x stream,
// so pagination's bounded memory never costs more than one extra
// round-trip of latency.

// sdkBenchOrigin publishes n tuples into a full WSDA node (query binding
// plus change feed) behind an httptest server.
func sdkBenchOrigin(b *testing.B, n int) (*registry.Registry, string, func()) {
	b.Helper()
	reg := registry.New(registry.Config{Name: "origin", DefaultTTL: time.Hour, JournalCap: 1024})
	node := &wsda.LocalNode{Desc: wsda.NewService("origin").Build(), Registry: reg}
	for i := 0; i < n; i++ {
		t := &tuple.Tuple{
			Link: fmt.Sprintf("http://sdk-bench.example/svc%04d", i), Type: tuple.TypeService,
			Content: xmldoc.MustParse(fmt.Sprintf(`<service name="svc%04d"/>`, i)).DocumentElement().Clone(),
		}
		if _, err := node.Publish(t, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", wsda.Handler(node))
	changefeed.NewServer(reg).Mount(mux)
	srv := httptest.NewServer(mux)
	return reg, srv.URL, srv.Close
}

func BenchmarkSDKCacheHit(b *testing.B) {
	reg, origin, done := sdkBenchOrigin(b, 64)
	defer done()
	c, err := sdk.New(sdk.Config{Origin: origin, FeedWait: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitCursor(ctx, reg.Gen()); err != nil {
		b.Fatal(err)
	}
	const link = "http://sdk-bench.example/svc0000"
	if _, ok, err := c.Lookup(link); err != nil || !ok {
		b.Fatalf("prime: ok=%v err=%v", ok, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Lookup(link); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// sdkBenchQuery matches every published tuple, so both delivery shapes
// walk the same result set.
const sdkBenchQuery = `/tupleset/tuple`

func BenchmarkSDKStreamFirstItem(b *testing.B) {
	_, origin, done := sdkBenchOrigin(b, 256)
	defer done()
	cl := wsda.NewClient(origin)
	runStream := func() time.Duration {
		start := time.Now()
		var first time.Duration
		if _, err := cl.XQueryStream(sdkBenchQuery, registry.QueryOptions{}, 0, func(xq.Item) bool {
			if first == 0 {
				first = time.Since(start)
			}
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if first == 0 {
			b.Fatal("stream delivered nothing")
		}
		return first
	}
	runStream() // prime views and compiled-query caches
	var totalFirst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalFirst += runStream()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFirst.Nanoseconds())/float64(b.N), "first-item-ns/op")
	}
}

func BenchmarkSDKPagedFirstItem(b *testing.B) {
	_, origin, done := sdkBenchOrigin(b, 256)
	defer done()
	cl := wsda.NewClient(origin)
	runPage := func() time.Duration {
		start := time.Now()
		page, err := cl.XQueryPage(sdkBenchQuery, registry.QueryOptions{}, 16, "")
		if err != nil {
			b.Fatal(err)
		}
		if len(page.Items) != 16 || page.Next == "" {
			b.Fatalf("items=%d next=%q", len(page.Items), page.Next)
		}
		return time.Since(start)
	}
	runPage() // prime views and compiled-query caches
	var totalFirst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalFirst += runPage()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFirst.Nanoseconds())/float64(b.N), "first-item-ns/op")
	}
}

func BenchmarkP2PFloodQuery(b *testing.B) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	gen := workload.NewGen(1)
	cluster, err := updf.BuildCluster(topology.Random(32, 4, 9), updf.ClusterConfig{
		Net: net,
		RegistryFor: func(i int) *registry.Registry {
			r := registry.New(registry.Config{Name: fmt.Sprintf("r%d", i), DefaultTTL: time.Hour})
			if _, err := r.Publish(gen.Tuple(i), time.Hour); err != nil {
				b.Fatal(err)
			}
			return r
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	orig, err := updf.NewOriginator("bench-orig", net, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer orig.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := orig.Submit(updf.QuerySpec{
			Query: `count(/tupleset/tuple)`, Entry: "node/0", Mode: pdp.Routed, Radius: -1,
			LoopTimeout: 30 * time.Second, AbortTimeout: 15 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Items) != 32 {
			b.Fatalf("hits = %d", len(rs.Items))
		}
	}
}
