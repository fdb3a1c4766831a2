package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want benchResult
	}{
		{
			"BenchmarkDecodeStream-2   \t     274\t   4144387 ns/op\t  70.61 MB/s\t       334.0 items/op\t 2907708 B/op\t    1355 allocs/op",
			benchResult{Name: "BenchmarkDecodeStream-2", Iterations: 274, NsPerOp: 4144387, BytesPerOp: 2907708, AllocsPerOp: 1355,
				Extra: map[string]float64{"MB/s": 70.61, "items/op": 334}},
		},
		{
			"BenchmarkSDKPagedFirstItem-2   \t    2185\t    530120 ns/op\t    241233 first-item-ns/op\t  106110 B/op\t    1153 allocs/op",
			benchResult{Name: "BenchmarkSDKPagedFirstItem-2", Iterations: 2185, NsPerOp: 530120, BytesPerOp: 106110, AllocsPerOp: 1153,
				Extra: map[string]float64{"first-item-ns/op": 241233}},
		},
		{
			"BenchmarkViewQueryChurn/n=1000-2         \t    5414\t    186718 ns/op\t  233171 B/op\t    3077 allocs/op",
			benchResult{Name: "BenchmarkViewQueryChurn/n=1000-2", Iterations: 5414, NsPerOp: 186718, BytesPerOp: 233171, AllocsPerOp: 3077},
		},
	} {
		got, ok := parseBenchLine(tc.line)
		if !ok {
			t.Errorf("parseBenchLine(%q) rejected", tc.line)
			continue
		}
		if got.Name != tc.want.Name || got.Iterations != tc.want.Iterations || got.NsPerOp != tc.want.NsPerOp ||
			got.BytesPerOp != tc.want.BytesPerOp || got.AllocsPerOp != tc.want.AllocsPerOp || len(got.Extra) != len(tc.want.Extra) {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
		for k, v := range tc.want.Extra {
			if got.Extra[k] != v {
				t.Errorf("parseBenchLine(%q).Extra[%q] = %v, want %v", tc.line, k, got.Extra[k], v)
			}
		}
	}
	for _, line := range []string{"goos: linux", "PASS", "ok  \twsda\t16.520s", "BenchmarkX-2 10 5 ns/op"} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted", line)
		}
	}
	if got := baseName("BenchmarkViewQueryChurn/n=1000-2"); got != "BenchmarkViewQueryChurn/n=1000" {
		t.Errorf("baseName = %q", got)
	}
}

func TestMedianRuns(t *testing.T) {
	got := medianRuns([]benchResult{
		{Name: "BenchmarkA-2", NsPerOp: 30, AllocsPerOp: 3},
		{Name: "BenchmarkB-2", NsPerOp: 7},
		{Name: "BenchmarkA-2", NsPerOp: 10, AllocsPerOp: 1},
		{Name: "BenchmarkA-2", NsPerOp: 20, AllocsPerOp: 2},
	})
	if len(got) != 2 || got[0].Name != "BenchmarkA-2" || got[0].AllocsPerOp != 2 || got[1].Name != "BenchmarkB-2" {
		t.Errorf("medianRuns = %+v, want A's 20 ns run, then B", got)
	}
}

func TestJudge(t *testing.T) {
	results := []benchResult{
		{Name: "BenchmarkA-2", NsPerOp: 300, AllocsPerOp: 4},
		{Name: "BenchmarkB-2", NsPerOp: 100, AllocsPerOp: 9},
		{Name: "BenchmarkDecode-2", NsPerOp: 1, AllocsPerOp: 1355, Extra: map[string]float64{"items/op": 334}},
	}
	for _, tc := range []struct {
		name    string
		row     guard
		value   float64
		pass    bool
		missing bool
	}{
		{"absolute at its max", guard{bench: "A", metric: "allocs/op", max: 4}, 4, true, false},
		{"absolute over its max", guard{bench: "B", metric: "allocs/op", max: 4}, 9, false, false},
		{"ratio", guard{bench: "A", metric: "ns/op", over: "B", max: 2}, 3, false, false},
		{"ratio within", guard{bench: "B", metric: "ns/op", over: "A", max: 0.5}, 1.0 / 3, true, false},
		{"ratio over another package", guard{pkg: ".", bench: "A", metric: "ns/op", over: "./p:B", max: 2}, 3, false, false},
		{"allocs/item rounds up", guard{bench: "Decode", metric: "allocs/item", max: 5}, 5, true, false},
		{"allocs/item rounds up past its max", guard{bench: "Decode", metric: "allocs/item", max: 4}, 5, false, false},
		{"missing benchmark", guard{bench: "C", metric: "allocs/op", max: 1e9}, 0, false, true},
		{"missing over", guard{bench: "A", metric: "ns/op", over: "C", max: 1e9}, 0, false, true},
		{"missing metric", guard{bench: "A", metric: "flushes/op", max: 1e9}, 0, false, true},
		{"allocs/item without items/op", guard{bench: "A", metric: "allocs/item", max: 1e9}, 0, false, true},
	} {
		rep := judge("t", []guard{tc.row}, results)
		v := rep.Guards[0]
		if v.Value != tc.value || v.Pass != tc.pass || v.Missing != tc.missing || rep.Pass != tc.pass {
			t.Errorf("%s: verdict %+v (report pass %v), want value %v pass %v missing %v",
				tc.name, v, rep.Pass, tc.value, tc.pass, tc.missing)
		}
	}
}

// TestDroppedBenchmarkFails runs the real table over a real run's output
// (testdata) with one benchmark's lines removed: the rows that name it must
// fail, and no other row may change its verdict.
func TestDroppedBenchmarkFails(t *testing.T) {
	for _, tc := range []struct{ suite, dropped string }{
		{"stream", "StreamWriteItem"},
		{"stream", "ScanTokens"},
		{"stream", "DecodeStreamOne"},
		{"xq", "PlannedQueryWarm"},
		{"xq", "PlanFallback"},
		{"xq", "Compile"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.suite+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		rows := suiteRows(guards, tc.suite)
		full := judge(tc.suite, rows, medianRuns(parseOutput(string(raw))))
		var kept []string
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "Benchmark"+tc.dropped+"-") {
				kept = append(kept, line)
			}
		}
		dropped := judge(tc.suite, rows, medianRuns(parseOutput(strings.Join(kept, "\n"))))
		if dropped.Pass {
			t.Errorf("%s without %s passes", tc.suite, tc.dropped)
		}
		named := 0
		for i, g := range rows {
			f, d := full.Guards[i], dropped.Guards[i]
			if _, over := g.overIn(); g.bench != tc.dropped && over != tc.dropped {
				if f != d {
					t.Errorf("%s without %s: unrelated row %s changed from %v to %v", tc.suite, tc.dropped, g.bench, f, d)
				}
				continue
			}
			named++
			if f.Missing || !d.Missing || d.Pass {
				t.Errorf("%s without %s: row %v was %v, now %v; want present, then missing and failed", tc.suite, tc.dropped, g, f, d)
			}
		}
		if named == 0 {
			t.Errorf("no %s row names %s", tc.suite, tc.dropped)
		}
	}
}

// TestTable checks the table without a bench run: the six suites, each
// benchmark in exactly one of them, and every benchmark a row names
// declared in its package's test files, so a rename fails here first.
func TestTable(t *testing.T) {
	if got, want := suiteNames(guards), []string{"view", "stream", "xq", "shard", "sdk", "xml"}; !slices.Equal(got, want) {
		t.Errorf("suites %v, want %v", got, want)
	}
	suiteOf := map[string]string{}
	declared := map[string][]string{}
	for _, g := range guards {
		if g.max < 0 || g.metric == "" {
			t.Errorf("row %+v: want a metric and a ceiling >= 0", g)
		}
		overPkg, over := g.overIn()
		for _, b := range [][2]string{{g.pkg, g.bench}, {overPkg, over}} {
			pkg, top := b[0], b[1]
			if top == "" {
				continue
			}
			if declared[pkg] == nil {
				declared[pkg] = benchmarksIn(t, filepath.Join("..", "..", pkg))
			}
			top, _, _ = strings.Cut(top, "/")
			key := pkg + " " + top
			if s, ok := suiteOf[key]; ok && s != g.suite {
				t.Errorf("%s runs in suites %s and %s", key, s, g.suite)
			}
			suiteOf[key] = g.suite
			if !slices.Contains(declared[pkg], "Benchmark"+top) {
				t.Errorf("row %+v: no func Benchmark%s in %s", g, top, pkg)
			}
		}
	}
	_, pats := patterns(suiteRows(guards, "shard"))
	if want := "^Benchmark(RoutedQueryWarm|DirectShardQueryWarm|ShardMergeItem|RoutedScatterHTTP)$"; pats["."] != want {
		t.Errorf("shard pattern %q, want %q", pats["."], want)
	}
	// An over in another package runs there, in the same suite.
	pkgs, pats := patterns([]guard{{"s", ".", "A", "ns/op", "./p:B", 1}, {"s", ".", "C", "ns/op", "D", 1}})
	if !slices.Equal(pkgs, []string{".", "./p"}) || pats["."] != "^Benchmark(A|C|D)$" || pats["./p"] != "^Benchmark(B)$" {
		t.Errorf("cross-package over: packages %v, patterns %v", pkgs, pats)
	}
}

// benchmarksIn lists the Benchmark functions declared in dir's test files.
func benchmarksIn(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s: %v", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
