// Command benchguard runs the guarded benchmark suites with -benchmem,
// records each suite's results in a JSON file, and fails when a guarded
// number regresses past its budget:
//
//   - view suite (BenchmarkViewQuery{Cold,Warm,Streamed,Churn} ->
//     BENCH_view.json): the whole point of tuple-set snapshots is that a
//     repeated identical-filter query against an unchanged store pins the
//     current one and allocates (almost) nothing, so allocs/op on the warm
//     path is guarded by a small budget; and because a streamed query pins
//     the same snapshot, its ns/op must stay within 2x of the buffered one.
//   - stream suite (BenchmarkStream{WriteItem,HeldRun,FirstItem},
//     BenchmarkDecodeStream -> BENCH_stream.json): delivering one item
//     through the chunked HTTP stream encoder serializes straight into a
//     reused buffer, so allocs/op on WriteItem is guarded at almost nothing;
//     a streamed Q7 over 1000 tuples is sorted before its first item, so
//     its answer leaves in at most 2 flushes (HeldRun's flushes/op, a count
//     that does not depend on the host); FirstItem's
//     time-to-first-item over an 8-node chain and the client decoder's
//     per-item ns and allocs over a canned 334-item stream are recorded
//     alongside for trend tracking.
//   - xq suite (BenchmarkPlannedQuery{Cold,Warm,ScanPage}, BenchmarkPlanFallback,
//     BenchmarkViewQueryQ{7,7Churn,7Shift,8,9}, BenchmarkXQEval{Simple,Medium,Complex},
//     BenchmarkRegistryMinQueryPrefix, BenchmarkLexer -> BENCH_xq.json):
//     the pushdown planner must answer an
//     index-hit discovery query at least 10x faster than the view-fallback
//     from-scratch materialization answers an unplannable one on the same
//     store (the fallback is a BuildView of 1000 tuples, milliseconds
//     whatever the interpreter does, against microseconds: the ratio keeps
//     two orders of magnitude of headroom over its floor), and the warm
//     index path (the revision's shared element) is held to a small
//     allocs/op budget. The interpreter is guarded through canonical Q7
//     over 1000 tuples: its predicates run as compiled closures and its
//     paths as fused walks, so it may allocate at most 10 times per tuple;
//     warm, it reads its source from the pinned tuple set's memo and runs
//     its where and order-by key as closures over each binding, so it may
//     allocate no more than 204 times (186 measured), and
//     with a Publish before every query (BenchmarkViewQueryQ7Churn) it
//     stays inside the 10 per tuple. Churned, and with an Unpublish and a
//     new link before every query (BenchmarkViewQueryQ7Shift), the advance
//     carries the memo and walks only the changed members, so both must
//     run within 1.6 times warm Q7's ns/op in the same run. This suite runs
//     each benchmark three times and records the median run.
//     Canonical Q8 (grouping) and Q9 (a join) guard set-at-a-time FLWOR the
//     same way: 12 and 40 allocations per tuple, where re-walking the tuple
//     set per group or per pair took 61 and 214. A first page of one
//     (BenchmarkPlannedQueryScanPage) and a one-link MinQuery
//     (BenchmarkRegistryMinQueryPrefix) read the pinned link-ordered tuple
//     set, so their bytes/op are held to 2 KB and 16 KB, far below the
//     whole-store copy and sort they replaced (about 105 and 110 KB).
//     The XQEval trio and lexer throughput ride along for trend tracking.
//   - shard suite (BenchmarkRoutedQueryWarm, BenchmarkDirectShardQueryWarm,
//     BenchmarkShardMergeItem, BenchmarkRoutedScatterHTTP -> BENCH_shard.json):
//     a streamed query routed through the scatter-gather router must put its
//     first item on the wire within 2x of the same query evaluated directly
//     on a single registry holding the full dataset (in practice the router
//     wins: each shard evaluates half the data in parallel), and the
//     router's per-merged-item allocations — in process, and across the HTTP
//     hop where it forwards the shards' bytes — are held to a budget so
//     large merged streams do not turn into GC pressure.
//   - xml suite (BenchmarkXMLParse -> BENCH_xml.json): parsing one service
//     description must stay within an allocs/op budget set just above what
//     the hand-written scanner needs, so the parser cannot quietly regress
//     (allocations, not MB/s: throughput depends on the host).
//   - sdk suite (BenchmarkSDKCacheHit, BenchmarkSDK{Paged,Stream}FirstItem
//     -> BENCH_sdk.json): a warm Lookup served from the client SDK's
//     feed-invalidated cache must stay within a small allocs/op budget and
//     under a hard ns/op ceiling (or fronting the origin with the SDK costs
//     more than it saves), and a cursor-paginated query's time-to-first-item
//     must stay within 2x of the same query streamed unpaginated.
//
// Usage:
//
//	benchguard                       # runs every suite, exits 1 on any breach
//	benchguard -suite stream         # one suite only
//	benchguard -view-budget 32 -stream-budget 2 -xq-budget 8 -shard-budget 4 -sdk-budget 2 -xml-budget 4
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchResult is one parsed `go test -bench` result line. Extra holds
// custom ReportMetric columns (e.g. first-item-ns/op) keyed by unit.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// report is one suite's JSON document: the raw parsed benchmark lines
// plus a suite-specific guard section filled in by the suite's finish
// hook.
type report struct {
	Suite      string        `json:"suite"`
	Benchmarks []benchResult `json:"benchmarks"`
	// ColdVsWarm compares the from-scratch materialization
	// (BenchmarkViewQueryCold) against pinning the current tuple set,
	// buffered (BenchmarkViewQueryWarm) and streamed
	// (BenchmarkViewQueryStreamed), on the same 1000-tuple store. View
	// suite only.
	ColdVsWarm *coldVsWarm `json:"cold_vs_warm,omitempty"`
	// Stream summarizes the stream-delivery guard numbers. Stream suite
	// only.
	Stream *streamGuard `json:"stream,omitempty"`
	// Planner compares the pushdown planner against a from-scratch
	// materialization on the same 1000-tuple store. XQ suite only.
	Planner *plannerGuard `json:"planner,omitempty"`
	// Shard compares the scatter-gather router against a direct
	// single-registry evaluation of the same dataset. Shard suite only.
	Shard *shardGuard `json:"shard,omitempty"`
	// SDK summarizes the client-SDK cache and pagination guard numbers.
	// SDK suite only.
	SDK *sdkGuard `json:"sdk,omitempty"`
	// XML summarizes the parser guard numbers. XML suite only.
	XML    *xmlGuard `json:"xml,omitempty"`
	Budget int64     `json:"budget"`
	Pass   bool      `json:"pass"`
}

// coldVsWarm is the view suite's guard section. StreamedVsWarm is the
// streamed warm query's ns/op divided by the buffered one's; the
// acceptance bound is 2.0 (ISSUE 14).
type coldVsWarm struct {
	ColdNsPerOp     float64 `json:"cold_ns_per_op"`
	WarmNsPerOp     float64 `json:"warm_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	ColdAllocsPerOp int64   `json:"cold_allocs_per_op"`
	WarmAllocsPerOp int64   `json:"warm_allocs_per_op"`
	StreamedNsPerOp float64 `json:"streamed_ns_per_op"`
	StreamedVsWarm  float64 `json:"streamed_vs_warm"`
}

// viewStreamedMaxRatio is the acceptance bound on streamed/buffered warm
// query cost: both pin the same tuple set, so Emit may not double it.
const viewStreamedMaxRatio = 2.0

// streamGuard is the stream suite's guard section. The decode numbers
// are BenchmarkDecodeStream's ns/op and allocs/op divided by its items/op.
type streamGuard struct {
	WriteItemNsPerOp     float64 `json:"write_item_ns_per_op"`
	WriteItemAllocsPerOp int64   `json:"write_item_allocs_per_op"`
	HeldRunFlushesPerOp  float64 `json:"held_run_flushes_per_op"`
	FirstItemNsPerOp     float64 `json:"first_item_ns_per_op"`
	DecodeNsPerItem      float64 `json:"decode_ns_per_item"`
	DecodeAllocsPerItem  float64 `json:"decode_allocs_per_item"`
}

// streamHeldMaxFlushes bounds the flushes of a streamed sorted answer: the
// first item, then everything else with the trailer.
const streamHeldMaxFlushes = 2

// xmlGuard is the xml suite's guard section.
type xmlGuard struct {
	ParseNsPerOp     float64 `json:"parse_ns_per_op"`
	ParseAllocsPerOp int64   `json:"parse_allocs_per_op"`
}

// plannerGuard is the xq suite's guard section. Speedup is the cost of a
// from-scratch materialization plus interpretation divided by the cold
// planned cost: how much a plannable discovery query saves even when its
// source must still be compiled and planned from scratch.
type plannerGuard struct {
	ColdNsPerOp      float64 `json:"cold_ns_per_op"`
	WarmNsPerOp      float64 `json:"warm_ns_per_op"`
	WarmAllocsPerOp  int64   `json:"warm_allocs_per_op"`
	FallbackNsPerOp  float64 `json:"fallback_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	LexerNsPerOp     float64 `json:"lexer_ns_per_op"`
	LexerAllocsPerOp int64   `json:"lexer_allocs_per_op"`
	Q7NsPerOp        float64 `json:"q7_ns_per_op"`
	Q7AllocsPerOp    int64   `json:"q7_allocs_per_op"`
	Q7ChurnNsPerOp   float64 `json:"q7_churn_ns_per_op"`
	Q7ChurnAllocs    int64   `json:"q7_churn_allocs_per_op"`
	Q7ShiftNsPerOp   float64 `json:"q7_shift_ns_per_op"`
	Q7ShiftAllocs    int64   `json:"q7_shift_allocs_per_op"`
	Q8NsPerOp        float64 `json:"q8_ns_per_op"`
	Q8AllocsPerOp    int64   `json:"q8_allocs_per_op"`
	Q9NsPerOp        float64 `json:"q9_ns_per_op"`
	Q9AllocsPerOp    int64   `json:"q9_allocs_per_op"`

	ScanPageNsPerOp          float64 `json:"scan_page_ns_per_op"`
	ScanPageBytesPerOp       int64   `json:"scan_page_bytes_per_op"`
	MinQueryPrefixNsPerOp    float64 `json:"minquery_prefix_ns_per_op"`
	MinQueryPrefixBytesPerOp int64   `json:"minquery_prefix_bytes_per_op"`
}

// q7MaxAllocsPerOp is the interpreter's allocation ceiling on
// BenchmarkViewQueryQ7: 10 per tuple of its 1000-tuple store (the AST
// interpreter it replaced took 94). q8 and q9 are the ceilings of
// set-at-a-time FLWOR on BenchmarkViewQueryQ8 and Q9, 12 and 40 per tuple:
// a grouping or a join that goes back to walking the tuple set once per
// group or per pair (61 and 214 per tuple) breaks them on any host.
const (
	q7MaxAllocsPerOp = 10_000
	q8MaxAllocsPerOp = 12_000
	q9MaxAllocsPerOp = 40_000
)

// q7WarmMaxAllocsPerOp is warm Q7's ceiling once its source is read from
// the pinned tuple set's memo and its where and order-by key are compiled
// over the bound node: 186 allocations measured, so a return to
// interpreting them per binding (about 13 allocations per storage element,
// 2 233 in all) breaks it on any host.
const q7WarmMaxAllocsPerOp = 204

// q7CarryMaxRatio bounds churned Q7 (BenchmarkViewQueryQ7Churn: a refresh
// before every query) and shifted Q7 (BenchmarkViewQueryQ7Shift: an
// unpublish and a new link, so member positions move) against warm Q7 in
// the same run, by time: the advance carries the last generation's node
// list and index and walks only the changed members, where a cold build
// over the set took 3.0 times warm. Allocations cannot tell the two
// apart: churned Q7 allocates about 360 more than warm either way.
const q7CarryMaxRatio = 1.6

// scanPageMaxBytesPerOp and minQueryPrefixMaxBytesPerOp are the ceilings on
// BenchmarkPlannedQueryScanPage (a first page of one) and
// BenchmarkRegistryMinQueryPrefix (one full link as the prefix) over 1000
// tuples: both read the pinned link-ordered tuple set, where copying and
// sorting the store took about 105 and 110 KB. Bytes, not ns, so a return
// to a whole-store copy breaks them on any host.
const (
	scanPageMaxBytesPerOp       = 2_048
	minQueryPrefixMaxBytesPerOp = 16_384
)

// shardGuard is the shard suite's guard section. FirstItemRatio is the
// routed first-item latency divided by the direct one; the acceptance
// bound is 2.0. MergeAllocsPerItem is the router merge path's allocations
// per delivered item (whole-query allocs/op divided by the items/op
// metric the benchmark reports, rounded up), and HTTPMergeAllocsPerItem
// the same over shards behind HTTP (BenchmarkRoutedScatterHTTP, whose
// process also runs the shards: an upper bound on the router's share);
// both are guarded by the suite budget.
type shardGuard struct {
	DirectFirstItemNs      float64 `json:"direct_first_item_ns"`
	RoutedFirstItemNs      float64 `json:"routed_first_item_ns"`
	FirstItemRatio         float64 `json:"first_item_ratio"`
	MergeNsPerOp           float64 `json:"merge_ns_per_op"`
	MergeItemsPerOp        float64 `json:"merge_items_per_op"`
	MergeAllocsPerItem     int64   `json:"merge_allocs_per_item"`
	HTTPMergeNsPerOp       float64 `json:"http_merge_ns_per_op"`
	HTTPMergeAllocsPerItem int64   `json:"http_merge_allocs_per_item"`
}

// shardFirstItemMaxRatio is the acceptance bound on routed/direct
// first-item latency (ISSUE 8): routing plus merge must not double the
// time to the first result.
const shardFirstItemMaxRatio = 2.0

// sdkGuard is the sdk suite's guard section. PagedVsStreamRatio is the
// paginated query's first-item latency divided by the unpaginated
// streamed one's; the acceptance bound is 2.0 (ISSUE 10).
type sdkGuard struct {
	HitNsPerOp         float64 `json:"hit_ns_per_op"`
	HitAllocsPerOp     int64   `json:"hit_allocs_per_op"`
	StreamFirstItemNs  float64 `json:"stream_first_item_ns"`
	PagedFirstItemNs   float64 `json:"paged_first_item_ns"`
	PagedVsStreamRatio float64 `json:"paged_vs_stream_ratio"`
}

// Acceptance bounds for the sdk suite (ISSUE 10): a warm cache hit must
// stay deep in sub-microsecond territory, and buffering one page must not
// double time-to-first-item versus streaming.
const (
	sdkHitMaxNs      = 1000.0
	sdkPagedMaxRatio = 2.0
)

// suite is one guarded benchmark family: which benchmarks to run, where
// to write the report, and how to judge pass/fail from the parsed lines.
type suite struct {
	name    string
	pattern string
	out     string
	// count runs each benchmark that many times (0: once) and records, of
	// each benchmark's runs, the one with the median ns/op: a guard on a
	// ratio of two times needs more than one sample of each on a shared
	// host.
	count int
	// finish fills the suite's guard section from the parsed results and
	// returns pass plus a one-line human summary.
	finish func(rep *report, budget int64) (bool, string)
}

var suites = []suite{
	{
		name:    "view",
		pattern: "BenchmarkViewQuery",
		out:     "BENCH_view.json",
		finish: func(rep *report, budget int64) (bool, string) {
			cw := &coldVsWarm{}
			for _, r := range rep.Benchmarks {
				switch baseName(r.Name) {
				case "BenchmarkViewQueryCold":
					cw.ColdNsPerOp = r.NsPerOp
					cw.ColdAllocsPerOp = r.AllocsPerOp
				case "BenchmarkViewQueryWarm":
					cw.WarmNsPerOp = r.NsPerOp
					cw.WarmAllocsPerOp = r.AllocsPerOp
				case "BenchmarkViewQueryStreamed":
					cw.StreamedNsPerOp = r.NsPerOp
				}
			}
			if cw.WarmNsPerOp > 0 {
				cw.Speedup = cw.ColdNsPerOp / cw.WarmNsPerOp
				cw.StreamedVsWarm = cw.StreamedNsPerOp / cw.WarmNsPerOp
			}
			rep.ColdVsWarm = cw
			pass := cw.WarmAllocsPerOp <= budget &&
				cw.StreamedVsWarm > 0 && cw.StreamedVsWarm <= viewStreamedMaxRatio
			return pass, fmt.Sprintf(
				"speedup %.0fx, warm allocs/op %d, budget %d, streamed/warm %.2fx (max %.1fx)",
				cw.Speedup, cw.WarmAllocsPerOp, budget, cw.StreamedVsWarm, viewStreamedMaxRatio)
		},
	},
	{
		name:    "stream",
		pattern: "Benchmark(Stream|DecodeStream)",
		out:     "BENCH_stream.json",
		finish: func(rep *report, budget int64) (bool, string) {
			sg := &streamGuard{}
			for _, r := range rep.Benchmarks {
				switch baseName(r.Name) {
				case "BenchmarkStreamWriteItem":
					sg.WriteItemNsPerOp = r.NsPerOp
					sg.WriteItemAllocsPerOp = r.AllocsPerOp
				case "BenchmarkStreamHeldRun":
					sg.HeldRunFlushesPerOp = r.Extra["flushes/op"]
				case "BenchmarkStreamFirstItem":
					sg.FirstItemNsPerOp = r.NsPerOp
				case "BenchmarkDecodeStream":
					if items := r.Extra["items/op"]; items > 0 {
						sg.DecodeNsPerItem = r.NsPerOp / items
						sg.DecodeAllocsPerItem = float64(r.AllocsPerOp) / items
					}
				}
			}
			rep.Stream = sg
			pass := sg.WriteItemAllocsPerOp <= budget &&
				sg.HeldRunFlushesPerOp > 0 && sg.HeldRunFlushesPerOp <= streamHeldMaxFlushes
			return pass,
				fmt.Sprintf("write-item allocs/op %d, budget %d, held-run flushes/op %.1f (max %d), first-item %.0f ns/op, decode %.0f ns and %.1f allocs per item",
					sg.WriteItemAllocsPerOp, budget, sg.HeldRunFlushesPerOp, streamHeldMaxFlushes, sg.FirstItemNsPerOp, sg.DecodeNsPerItem, sg.DecodeAllocsPerItem)
		},
	},
	{
		name:    "xq",
		pattern: "Benchmark(PlannedQuery|PlanFallback|Lexer|ViewQueryQ[789]|XQEval|RegistryMinQueryPrefix)",
		out:     "BENCH_xq.json",
		count:   3,
		finish: func(rep *report, budget int64) (bool, string) {
			pg := &plannerGuard{}
			for _, r := range rep.Benchmarks {
				switch baseName(r.Name) {
				case "BenchmarkPlannedQueryCold":
					pg.ColdNsPerOp = r.NsPerOp
				case "BenchmarkPlannedQueryWarm":
					pg.WarmNsPerOp = r.NsPerOp
					pg.WarmAllocsPerOp = r.AllocsPerOp
				case "BenchmarkPlanFallback":
					pg.FallbackNsPerOp = r.NsPerOp
				case "BenchmarkLexer":
					pg.LexerNsPerOp = r.NsPerOp
					pg.LexerAllocsPerOp = r.AllocsPerOp
				case "BenchmarkViewQueryQ7":
					pg.Q7NsPerOp = r.NsPerOp
					pg.Q7AllocsPerOp = r.AllocsPerOp
				case "BenchmarkViewQueryQ7Churn":
					pg.Q7ChurnNsPerOp = r.NsPerOp
					pg.Q7ChurnAllocs = r.AllocsPerOp
				case "BenchmarkViewQueryQ7Shift":
					pg.Q7ShiftNsPerOp = r.NsPerOp
					pg.Q7ShiftAllocs = r.AllocsPerOp
				case "BenchmarkViewQueryQ8":
					pg.Q8NsPerOp = r.NsPerOp
					pg.Q8AllocsPerOp = r.AllocsPerOp
				case "BenchmarkViewQueryQ9":
					pg.Q9NsPerOp = r.NsPerOp
					pg.Q9AllocsPerOp = r.AllocsPerOp
				case "BenchmarkPlannedQueryScanPage":
					pg.ScanPageNsPerOp = r.NsPerOp
					pg.ScanPageBytesPerOp = r.BytesPerOp
				case "BenchmarkRegistryMinQueryPrefix":
					pg.MinQueryPrefixNsPerOp = r.NsPerOp
					pg.MinQueryPrefixBytesPerOp = r.BytesPerOp
				}
			}
			if pg.ColdNsPerOp > 0 {
				pg.Speedup = pg.FallbackNsPerOp / pg.ColdNsPerOp
			}
			rep.Planner = pg
			// Five guards: planner-vs-fallback speedup and the warm
			// allocation budget (either regression defeats the point of
			// the planner), the interpreter's allocations per tuple on a
			// predicated path (Q7, warm and churned), a grouping (Q8) and
			// a join (Q9), churned and shifted Q7's time against warm
			// Q7's (the memo's carry), and
			// the bytes of a first page and a one-link MinQuery.
			within := func(allocs, ceiling int64) bool { return allocs > 0 && allocs <= ceiling }
			ranWithin := func(ns float64, bytes, ceiling int64) bool { return ns > 0 && bytes <= ceiling }
			carried := func(ns float64) bool { return ns > 0 && ns <= q7CarryMaxRatio*pg.Q7NsPerOp }
			pass := pg.Speedup >= 10 && pg.WarmAllocsPerOp <= budget &&
				within(pg.Q7AllocsPerOp, q7WarmMaxAllocsPerOp) &&
				within(pg.Q7ChurnAllocs, q7MaxAllocsPerOp) &&
				carried(pg.Q7ChurnNsPerOp) && carried(pg.Q7ShiftNsPerOp) &&
				within(pg.Q8AllocsPerOp, q8MaxAllocsPerOp) &&
				within(pg.Q9AllocsPerOp, q9MaxAllocsPerOp) &&
				ranWithin(pg.ScanPageNsPerOp, pg.ScanPageBytesPerOp, scanPageMaxBytesPerOp) &&
				ranWithin(pg.MinQueryPrefixNsPerOp, pg.MinQueryPrefixBytesPerOp, minQueryPrefixMaxBytesPerOp)
			return pass, fmt.Sprintf(
				"speedup %.0fx (min 10x), warm allocs/op %d, budget %d, allocs/op Q7 %d (max %d), Q7 churned %d (max %d), Q8 %d (max %d), Q9 %d (max %d), "+
					"Q7 churned %.2fx and shifted %.2fx warm's ns/op (max %.1fx), B/op scan page %d (max %d), minquery prefix %d (max %d)",
				pg.Speedup, pg.WarmAllocsPerOp, budget, pg.Q7AllocsPerOp, q7WarmMaxAllocsPerOp, pg.Q7ChurnAllocs, q7MaxAllocsPerOp,
				pg.Q8AllocsPerOp, q8MaxAllocsPerOp, pg.Q9AllocsPerOp, q9MaxAllocsPerOp,
				pg.Q7ChurnNsPerOp/pg.Q7NsPerOp, pg.Q7ShiftNsPerOp/pg.Q7NsPerOp, q7CarryMaxRatio,
				pg.ScanPageBytesPerOp, scanPageMaxBytesPerOp, pg.MinQueryPrefixBytesPerOp, minQueryPrefixMaxBytesPerOp)
		},
	},
	{
		name:    "shard",
		pattern: "Benchmark(RoutedQueryWarm|DirectShardQueryWarm|ShardMergeItem|RoutedScatterHTTP)$",
		out:     "BENCH_shard.json",
		finish: func(rep *report, budget int64) (bool, string) {
			sg := &shardGuard{}
			for _, r := range rep.Benchmarks {
				switch baseName(r.Name) {
				case "BenchmarkDirectShardQueryWarm":
					sg.DirectFirstItemNs = r.Extra["first-item-ns/op"]
				case "BenchmarkRoutedQueryWarm":
					sg.RoutedFirstItemNs = r.Extra["first-item-ns/op"]
				case "BenchmarkShardMergeItem":
					sg.MergeNsPerOp = r.NsPerOp
					sg.MergeItemsPerOp = r.Extra["items/op"]
					sg.MergeAllocsPerItem = allocsPerItem(r)
				case "BenchmarkRoutedScatterHTTP":
					sg.HTTPMergeNsPerOp = r.NsPerOp
					sg.HTTPMergeAllocsPerItem = allocsPerItem(r)
				}
			}
			if sg.DirectFirstItemNs > 0 {
				sg.FirstItemRatio = sg.RoutedFirstItemNs / sg.DirectFirstItemNs
			}
			rep.Shard = sg
			// Two guards: routing+merge must not double first-item latency,
			// and the merge hot path, in process and over HTTP, must stay
			// within its per-item allocation budget.
			pass := sg.FirstItemRatio > 0 && sg.FirstItemRatio <= shardFirstItemMaxRatio &&
				sg.MergeAllocsPerItem > 0 && sg.MergeAllocsPerItem <= budget &&
				sg.HTTPMergeAllocsPerItem > 0 && sg.HTTPMergeAllocsPerItem <= budget
			return pass, fmt.Sprintf(
				"routed/direct first-item %.2fx (max %.1fx), merge allocs/item %d in process, %d over HTTP, budget %d",
				sg.FirstItemRatio, shardFirstItemMaxRatio, sg.MergeAllocsPerItem, sg.HTTPMergeAllocsPerItem, budget)
		},
	},
	{
		name:    "sdk",
		pattern: "BenchmarkSDK",
		out:     "BENCH_sdk.json",
		finish: func(rep *report, budget int64) (bool, string) {
			sg := &sdkGuard{}
			for _, r := range rep.Benchmarks {
				switch baseName(r.Name) {
				case "BenchmarkSDKCacheHit":
					sg.HitNsPerOp = r.NsPerOp
					sg.HitAllocsPerOp = r.AllocsPerOp
				case "BenchmarkSDKStreamFirstItem":
					sg.StreamFirstItemNs = r.Extra["first-item-ns/op"]
				case "BenchmarkSDKPagedFirstItem":
					sg.PagedFirstItemNs = r.Extra["first-item-ns/op"]
				}
			}
			if sg.StreamFirstItemNs > 0 {
				sg.PagedVsStreamRatio = sg.PagedFirstItemNs / sg.StreamFirstItemNs
			}
			rep.SDK = sg
			// Three guards: the warm hit path's allocation budget and
			// latency ceiling, and pagination's first-item overhead.
			pass := sg.HitNsPerOp > 0 && sg.HitNsPerOp <= sdkHitMaxNs &&
				sg.HitAllocsPerOp <= budget &&
				sg.PagedVsStreamRatio > 0 && sg.PagedVsStreamRatio <= sdkPagedMaxRatio
			return pass, fmt.Sprintf(
				"warm hit %.0f ns/op (max %.0f) %d allocs/op (budget %d), paged/stream first-item %.2fx (max %.1fx)",
				sg.HitNsPerOp, sdkHitMaxNs, sg.HitAllocsPerOp, budget,
				sg.PagedVsStreamRatio, sdkPagedMaxRatio)
		},
	},
	{
		name:    "xml",
		pattern: "BenchmarkXMLParse$",
		out:     "BENCH_xml.json",
		finish: func(rep *report, budget int64) (bool, string) {
			xg := &xmlGuard{}
			for _, r := range rep.Benchmarks {
				xg.ParseNsPerOp, xg.ParseAllocsPerOp = r.NsPerOp, r.AllocsPerOp
			}
			rep.XML = xg
			return xg.ParseAllocsPerOp <= budget,
				fmt.Sprintf("parse allocs/op %d, budget %d, %.0f ns/op", xg.ParseAllocsPerOp, budget, xg.ParseNsPerOp)
		},
	},
}

// allocsPerItem is a benchmark's allocs/op over the items/op it reports,
// rounded up so that a fraction of an allocation per item still shows.
func allocsPerItem(r benchResult) int64 {
	items := r.Extra["items/op"]
	if items <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(r.AllocsPerOp) / items))
}

func main() {
	which := flag.String("suite", "all", "suite to run: view|stream|xq|shard|sdk|xml|all")
	viewBudget := flag.Int64("view-budget", 32, "max allocs/op allowed on the warm view path")
	streamBudget := flag.Int64("stream-budget", 2, "max allocs/op allowed per streamed item write")
	xqBudget := flag.Int64("xq-budget", 8, "max allocs/op allowed on the warm planned-query path")
	shardBudget := flag.Int64("shard-budget", 4, "max allocs allowed per item merged through the router, in process and over HTTP")
	sdkBudget := flag.Int64("sdk-budget", 2, "max allocs/op allowed on a warm SDK cache hit")
	xmlBudget := flag.Int64("xml-budget", 4, "max allocs/op allowed parsing one service description")
	flag.Parse()

	budgets := map[string]int64{"view": *viewBudget, "stream": *streamBudget, "xq": *xqBudget,
		"shard": *shardBudget, "sdk": *sdkBudget, "xml": *xmlBudget}
	failed := false
	ran := 0
	for _, s := range suites {
		if *which != "all" && *which != s.name {
			continue
		}
		ran++
		if !runSuite(s, budgets[s.name]) {
			failed = true
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: unknown suite %q\n", *which)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// runSuite executes one suite end to end: bench run, parse, guard check,
// report file. It reports failures but never exits, so every requested
// suite runs and gets its report written.
func runSuite(s suite, budget int64) bool {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", s.pattern, "-benchmem", "-count", strconv.Itoa(max(s.count, 1)), ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: bench run failed: %v\n", s.name, err)
		return false
	}
	fmt.Print(string(raw))

	rep := report{Suite: s.name, Budget: budget}
	for _, line := range strings.Split(string(raw), "\n") {
		if r, ok := parseBenchLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s: no benchmark results parsed\n", s.name)
		return false
	}
	rep.Benchmarks = medianRuns(rep.Benchmarks)
	pass, summary := s.finish(&rep, budget)
	rep.Pass = pass

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", s.name, err)
		return false
	}
	if err := os.WriteFile(s.out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", s.name, err)
		return false
	}
	fmt.Printf("benchguard: wrote %s (%s)\n", s.out, summary)
	if !pass {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL: suite %s over budget (%s)\n", s.name, summary)
	}
	return pass
}

// medianRuns keeps, of each benchmark's runs, the one with the median
// ns/op, in the order the benchmarks first ran.
func medianRuns(rs []benchResult) []benchResult {
	runs := map[string][]benchResult{}
	var out []benchResult
	for _, r := range rs {
		if runs[r.Name] == nil {
			out = append(out, r)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	for i, r := range out {
		byNs := runs[r.Name]
		slices.SortFunc(byNs, func(a, b benchResult) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		out[i] = byNs[len(byNs)/2]
	}
	return out
}

// baseName strips the -GOMAXPROCS suffix from a benchmark name.
func baseName(name string) string {
	return strings.SplitN(name, "-", 2)[0]
}

// parseBenchLine parses a `-benchmem` result line of the form
//
//	BenchmarkName-8  1000000  1208 ns/op  352 B/op  17 allocs/op
//
// Extra custom metrics (ReportMetric columns) between ns/op and B/op are
// tolerated: fields are located by their unit token, not by position.
func parseBenchLine(line string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 8 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: f[0], Iterations: iters}
	seen := 0
	for i := 3; i < len(f); i += 2 {
		val := f[i-1]
		switch f[i] {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return benchResult{}, false
			}
			seen++
		case "B/op":
			if r.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return benchResult{}, false
			}
			seen++
		case "allocs/op":
			if r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return benchResult{}, false
			}
			seen++
		default:
			// Custom ReportMetric columns (first-item-ns/op, items/op, ...)
			// keep their unit token as the key.
			if v, perr := strconv.ParseFloat(val, 64); perr == nil {
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[f[i]] = v
			}
		}
	}
	return r, seen == 3
}
