// Command benchguard runs the guarded benchmarks with -benchmem, records
// each suite's results in BENCH_<suite>.json, and fails when a guard does
// not hold.
//
// The guards are the rows of one table. A row names a benchmark, a metric
// and a ceiling: ns/op, B/op, allocs/op, any ReportMetric unit
// (flushes/op, first-item-ns/op), or allocs/item (allocs/op over the
// benchmark's items/op, rounded up). A row with over set divides its value
// by the same metric of that benchmark from the same run. A row passes
// when its value is at most its max; a row whose benchmark or metric, or
// its over's, is missing from the run fails.
//
// Everything else follows from the rows. A benchmark runs only if a row
// names it, in exactly one suite, with the -bench pattern
// ^Benchmark(A|B|...)$ built per package from the suite's rows. Every
// benchmark runs three times and the median run by ns/op is kept.
//
// Usage:
//
//	benchguard                # runs every suite, exits 1 if any row fails
//	benchguard -suite stream  # one suite only
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

// guard is one row of the table: bench's metric, divided by over's when
// over is set, must be at most max. bench may name a sub-benchmark
// (ViewQueryChurn/n=1000); pkg is the package the benchmark lives in,
// relative to the module root, and over's too unless over is spelled
// "pkg:Bench".
type guard struct {
	suite, pkg, bench, metric, over string
	max                             float64
}

// overIn is the package and the name of the row's over benchmark.
func (g guard) overIn() (pkg, bench string) {
	if pkg, bench, ok := strings.Cut(g.over, ":"); ok {
		return pkg, bench
	}
	return g.pkg, g.over
}

// count is how many times every benchmark runs: a ratio of two times
// needs more than one sample of each on a shared host.
const count = 3

// guards is the table. Allocations do not depend on the host, so a
// ceiling at "measured + 10 %" catches growth past that on any host.
var guards = []guard{
	// Pinning the current tuple set of an unchanged store allocates
	// (almost) nothing and costs a sliver of the from-scratch build: the
	// point of tuple-set snapshots (720 ns against 12.0 ms, 6e-5,
	// measured).
	{"view", ".", "ViewQueryWarm", "allocs/op", "", 32},
	{"view", ".", "ViewQueryWarm", "ns/op", "ViewQueryCold", 0.002},
	// A streamed query pins the same tuple set as the buffered one, so
	// Emit may not double its cost.
	{"view", ".", "ViewQueryStreamed", "ns/op", "ViewQueryWarm", 2.0},
	// The from-scratch materialization a warm query skips: 102 055
	// measured.
	{"view", ".", "ViewQueryCold", "allocs/op", "", 112_261},
	// Ten republishes and a query: an advance re-renders only the changed
	// tuples, so the count does not grow with the store (3 077 and 3 079
	// measured).
	{"view", ".", "ViewQueryChurn/n=1000", "allocs/op", "", 3_387},
	{"view", ".", "ViewQueryChurn/n=4000", "allocs/op", "", 3_387},
	// One publish: parse, index and render of one tuple (203 measured).
	{"view", ".", "RegistryPublish", "allocs/op", "", 224},
	// Q3, streamed, reads its node list from the pinned set's memo warm
	// (4 allocations, 1.0-1.2 us) and, with a refresh before each query,
	// from the list the advance carried (240 allocations, 70 us), where
	// walking all 1000 members took 630 and 700-760 us (288 allocations
	// churned). The time rows divide by the from-scratch BuildView (13-15
	// ms), which no query path runs.
	{"view", ".", "ViewQueryQ3", "allocs/op", "", 5},
	{"view", ".", "ViewQueryQ3Churn", "allocs/op", "", 264},
	{"view", ".", "ViewQueryQ3", "ns/op", "ViewQueryCold", 0.002},
	{"view", ".", "ViewQueryQ3Churn", "ns/op", "ViewQueryCold", 0.02},
	// One generation of the view-xquery mix (seven Q7, two of Q6, Q8 and
	// Q10 in rotation, one refresh): each advance carries what the
	// rotation reads through the generation it skips, so it builds only
	// the rank map (5 959-6 002 measured).
	{"view", ".", "ViewQueryMix", "allocs/op", "", 6_600},

	// Delivering one item serializes straight into a reused buffer.
	{"stream", ".", "StreamWriteItem", "allocs/op", "", 2},
	// A registry-rendered <service> (about 1 KB, what Q3 emits) is copied
	// from its revision's frozen bytes, not walked and escaped: 0.29-0.39x
	// StreamWriteItem's 56-byte parsed element, where walking it read
	// 12.0-13.2x. The bound sits about 6x from each.
	{"stream", ".", "StreamWriteSharedItem", "allocs/op", "", 0},
	{"stream", ".", "StreamWriteSharedItem", "ns/op", "StreamWriteItem", 2.0},
	// A streamed Q7 over 1000 tuples is sorted before its first item, so
	// its answer leaves in two flushes: the first item, then the rest with
	// the trailer.
	{"stream", ".", "StreamHeldRun", "flushes/op", "", 2},
	// Time to first item over an 8-node chain (286 measured).
	{"stream", ".", "StreamFirstItem", "allocs/op", "", 315},
	// The client decoder over a canned 334-item stream builds each tree in
	// the pass that frames it, carving nodes and lists from chunks shared
	// across items: 1.83 allocations and 6.4 KB per item measured, where
	// framing, then parsing each item's bytes took 4.06 and 8.7 KB. The
	// byte row is 0.75x the old decoder's 2 907 740.
	{"stream", ".", "DecodeStream", "allocs/item", "", 2},
	{"stream", ".", "DecodeStream", "B/op", "", 2_180_805},
	// A one-item answer (a point lookup) reuses a pooled decoder: 17
	// allocations and 10.6 KB measured, where a decoder of its own per
	// stream took 24 and 17.4 KB.
	{"stream", ".", "DecodeStreamOne", "allocs/op", "", 22},
	{"stream", ".", "DecodeStreamOne", "B/op", "", 17_328},
	// Framing alone, what the router does with a shard's stream, against
	// scanning the same stream one token per tag and attribute: the
	// framer runs through each item without returning a token per tag
	// (0.67-0.85 measured in five runs, where a framer returning
	// a token per tag read 1.24-1.57). The bound sits between the two.
	{"stream", ".", "DecodeRawStream", "ns/op", "./internal/xmldoc:ScanTokens", 1.0},
	// The router's Framer comes from the decoders' pool and the summary's
	// attributes are read without a tree: 768-770 B/op measured, where a
	// Framer per stream and a parsed summary took 8 104. The row is 0.1x
	// that.
	{"stream", ".", "DecodeRawStream", "B/op", "", 810},
	// One query over the HTTP binding, client and server (121 measured).
	{"stream", ".", "WSDAHTTPRoundTrip", "allocs/op", "", 134},
	// Disabled instrumentation is a bare nil check on every edge. Its
	// time (the 5 ns bar) is not guarded: NilFlightRecord reads 2.9-5.7 ns
	// on a shared 2-vCPU host.
	{"stream", "./internal/telemetry", "NilCounterInc", "allocs/op", "", 0},
	{"stream", "./internal/telemetry", "NilHistogramObserve", "allocs/op", "", 0},
	{"stream", "./internal/telemetry", "NilFlightRecord", "allocs/op", "", 0},

	// An index-hit discovery query, compiled and planned from scratch, at
	// least 10x faster than the fallback's BuildView of 1000 tuples
	// (milliseconds against microseconds: two orders of headroom).
	{"xq", ".", "PlannedQueryCold", "ns/op", "PlanFallback", 0.1},
	// The warm index path shares the revision's element.
	{"xq", ".", "PlannedQueryWarm", "allocs/op", "", 8},
	// Warm Q7 reads its source from the pinned tuple set's memo and runs
	// its where and order-by key as closures over each binding: 186
	// measured, where interpreting them per binding took 2 233.
	{"xq", ".", "ViewQueryQ7", "allocs/op", "", 204},
	// Q7 with a Publish before every query stays within 10 allocations
	// per tuple (the AST interpreter took 94).
	{"xq", ".", "ViewQueryQ7Churn", "allocs/op", "", 10_000},
	// Churned Q7, and Q7 after an Unpublish and a new link (member
	// positions move): the advance carries the memo and walks only the
	// changed members, where a cold build took 3.0x warm. Allocations
	// cannot tell the two apart; time can.
	{"xq", ".", "ViewQueryQ7Churn", "ns/op", "ViewQueryQ7", 1.6},
	{"xq", ".", "ViewQueryQ7Shift", "ns/op", "ViewQueryQ7", 1.6},
	// Set-at-a-time FLWOR: a grouping and a join at 12 and 40 per tuple,
	// where walking the tuple set per group or per pair took 61 and 214.
	{"xq", ".", "ViewQueryQ8", "allocs/op", "", 12_000},
	{"xq", ".", "ViewQueryQ9", "allocs/op", "", 40_000},
	// A first page of one and a one-link MinQuery read the pinned
	// link-ordered tuple set, where copying and sorting the store took
	// about 105 and 110 KB.
	{"xq", ".", "PlannedQueryScanPage", "B/op", "", 2_048},
	{"xq", ".", "RegistryMinQueryPrefix", "B/op", "", 16_384},
	// A MinQuery over all 1000 tuples (86 032 measured).
	{"xq", ".", "RegistryMinQuery1k", "allocs/op", "", 94_636},
	// Compiling all ten canonical queries, what routerd does to every
	// query it routes: 492 measured, where the parser that threaded its
	// errors through every call took 943. The bailout and the precedence
	// table may not add an allocation to the parent's count.
	{"xq", ".", "Compile", "allocs/op", "", 943},
	// The lexer and the evaluator on three canned queries (1, and 11, 13
	// and 4 789 measured): every token's text is a slice of the source.
	{"xq", ".", "Lexer", "allocs/op", "", 2},
	{"xq", ".", "XQEvalSimple", "allocs/op", "", 13},
	{"xq", ".", "XQEvalMedium", "allocs/op", "", 15},
	{"xq", ".", "XQEvalComplex", "allocs/op", "", 5_268},

	// Routing and the streamed merge may not double the time to the first
	// item of a single registry holding all the data.
	{"shard", ".", "RoutedQueryWarm", "first-item-ns/op", "DirectShardQueryWarm", 2.0},
	// Per merged item, in process and across the HTTP hop (whose process
	// also runs the shards: an upper bound on the router's share).
	{"shard", ".", "ShardMergeItem", "allocs/item", "", 4},
	{"shard", ".", "RoutedScatterHTTP", "allocs/item", "", 4},
	// Across the HTTP hop the router flushes before it reads a shard, not
	// after each merged item (1.0 flushes per item; 0.04-0.07 measured).
	{"shard", ".", "RoutedScatterHTTP", "flushes/item", "", 0.25},

	// A warm Lookup served from the SDK's cache, or fronting the origin
	// with the SDK costs more than it saves.
	{"sdk", ".", "SDKCacheHit", "ns/op", "", 1_000},
	{"sdk", ".", "SDKCacheHit", "allocs/op", "", 2},
	// Buffering one page may not double the time to the first item.
	{"sdk", ".", "SDKPagedFirstItem", "first-item-ns/op", "SDKStreamFirstItem", 2.0},

	// Parsing one service description, just above what the hand-written
	// scanner needs (allocations: throughput depends on the host).
	{"xml", ".", "XMLParse", "allocs/op", "", 4},
}

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

// verdict is one row's outcome. Missing is set when the row's benchmark
// or metric, or its over's, was not in the run.
type verdict struct {
	Bench   string  `json:"bench"`
	Metric  string  `json:"metric"`
	Over    string  `json:"over,omitempty"`
	Value   float64 `json:"value"`
	Max     float64 `json:"max"`
	Pass    bool    `json:"pass"`
	Missing bool    `json:"missing,omitempty"`
}

// report is one suite's JSON document.
type report struct {
	Suite      string        `json:"suite"`
	Benchmarks []benchResult `json:"benchmarks"`
	Guards     []verdict     `json:"guards"`
	Pass       bool          `json:"pass"`
}

func main() {
	which := flag.String("suite", "all", "suite to run: view|stream|xq|shard|sdk|xml|all")
	flag.Parse()

	failed, ran := false, 0
	for _, s := range suiteNames(guards) {
		if *which != "all" && *which != s {
			continue
		}
		ran++
		if !runSuite(s, suiteRows(guards, s)) {
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

// suiteNames lists the table's suites in the order they first appear.
func suiteNames(rows []guard) []string {
	var names []string
	for _, g := range rows {
		if !slices.Contains(names, g.suite) {
			names = append(names, g.suite)
		}
	}
	return names
}

// suiteRows is the table's rows for one suite.
func suiteRows(rows []guard, suite string) []guard {
	var out []guard
	for _, g := range rows {
		if g.suite == suite {
			out = append(out, g)
		}
	}
	return out
}

// patterns maps each package the rows touch, in order of first
// appearance, to the -bench pattern that runs exactly the top-level
// benchmarks of it the rows name, bench and over alike.
func patterns(rows []guard) ([]string, map[string]string) {
	var pkgs []string
	names := map[string][]string{}
	add := func(pkg, bench string) {
		top, _, _ := strings.Cut(bench, "/")
		if top == "" {
			return
		}
		if names[pkg] == nil {
			pkgs = append(pkgs, pkg)
		}
		if !slices.Contains(names[pkg], top) {
			names[pkg] = append(names[pkg], top)
		}
	}
	for _, g := range rows {
		add(g.pkg, g.bench)
		add(g.overIn())
	}
	pats := map[string]string{}
	for pkg, ns := range names {
		pats[pkg] = "^Benchmark(" + strings.Join(ns, "|") + ")$"
	}
	return pkgs, pats
}

// runSuite runs one suite end to end: the bench run of each package, the
// median of each benchmark's runs, the rows' verdicts, the report file. It
// reports failures but never exits, so every requested suite runs and gets
// its report written.
func runSuite(suite string, rows []guard) bool {
	var results []benchResult
	pkgs, pats := patterns(rows)
	for _, pkg := range pkgs {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", pats[pkg],
			"-benchmem", "-count", strconv.Itoa(count), pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		fmt.Print(string(raw))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s: bench run of %s failed: %v\n", suite, pkg, err)
			return false
		}
		results = append(results, parseOutput(string(raw))...)
	}
	rep := judge(suite, rows, medianRuns(results))

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_"+suite+".json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", suite, err)
		return false
	}
	for _, v := range rep.Guards {
		line := fmt.Sprintf("benchguard: %s %s", suite, v)
		if v.Pass {
			fmt.Println(line)
		} else {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	fmt.Printf("benchguard: wrote BENCH_%s.json\n", suite)
	return rep.Pass
}

// String is the verdict as one line of the run's log.
func (v verdict) String() string {
	what := v.Bench + " " + v.Metric
	if v.Over != "" {
		what = v.Bench + " / " + v.Over + " " + v.Metric
	}
	value := strconv.FormatFloat(v.Value, 'f', 3, 64)
	if v.Value == math.Trunc(v.Value) {
		value = strconv.FormatFloat(v.Value, 'f', 0, 64)
	}
	switch {
	case v.Missing:
		return fmt.Sprintf("%s missing from the run (max %g): FAIL", what, v.Max)
	case v.Pass:
		return fmt.Sprintf("%s %s <= %g: ok", what, value, v.Max)
	}
	return fmt.Sprintf("%s %s > %g: FAIL", what, value, v.Max)
}

// judge builds a suite's report from its rows and its median results.
func judge(suite string, rows []guard, results []benchResult) report {
	rep := report{Suite: suite, Benchmarks: results, Pass: true}
	for _, g := range rows {
		v := verdict{Bench: g.bench, Metric: g.metric, Over: g.over, Max: g.max}
		value, ok := lookup(results, g.bench, g.metric)
		if _, over := g.overIn(); over != "" {
			base, bok := lookup(results, over, g.metric)
			value, ok = value/base, ok && bok && base > 0
		}
		if ok {
			v.Value, v.Pass = value, value <= g.max
		} else {
			v.Missing = true
		}
		rep.Guards = append(rep.Guards, v)
		rep.Pass = rep.Pass && v.Pass
	}
	return rep
}

// lookup reads one metric of the named benchmark from a run; false when
// the benchmark or the metric is not in it.
func lookup(results []benchResult, bench, metric string) (float64, bool) {
	i := slices.IndexFunc(results, func(r benchResult) bool { return baseName(r.Name) == "Benchmark"+bench })
	if i < 0 {
		return 0, false
	}
	r := results[i]
	switch metric {
	case "ns/op":
		return r.NsPerOp, true
	case "B/op":
		return float64(r.BytesPerOp), true
	case "allocs/op":
		return float64(r.AllocsPerOp), true
	case "allocs/item":
		// Rounded up, so a fraction of an allocation per item still shows.
		items := r.Extra["items/op"]
		return math.Ceil(float64(r.AllocsPerOp) / items), items > 0
	}
	v, ok := r.Extra[metric]
	return v, ok
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
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseOutput parses every result line of a `go test -bench` run.
func parseOutput(raw string) []benchResult {
	var rs []benchResult
	for _, line := range strings.Split(raw, "\n") {
		if r, ok := parseBenchLine(line); ok {
			rs = append(rs, r)
		}
	}
	return rs
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
