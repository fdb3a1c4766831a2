package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{5}, quartiles{5, 5, 5}},
		{[]float64{2, 1}, quartiles{1.25, 1.5, 1.75}},
		{[]float64{4, 1, 3, 2, 5}, quartiles{2, 3, 4}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, quartiles{3.25, 5.5, 7.75}},
	} {
		if got := quartilesOf(c.xs); got != c.want {
			t.Errorf("quartiles of %v: %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// runs makes one side's runs of a metric from its readings.
func runs(name string, vals ...float64) []runResult {
	var rs []runResult
	for _, v := range vals {
		rs = append(rs, runResult{Correct: true, Attempted: 100, Metrics: map[string]float64{name: v}})
	}
	return rs
}

// The verdict needs both: nine wins in ten, and a gap between the medians
// wider than the parent's interquartile range, in the better direction.
func TestVerdict(t *testing.T) {
	parent := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98}
	for _, c := range []struct {
		name      string
		better    string
		change    []float64
		wins      int
		claimable bool
	}{
		{"clear gain", "lower", []float64{0.80, 0.81, 0.79, 0.82, 0.80, 0.78, 0.81, 0.80, 0.79, 0.80}, 10, true},
		{"nine wins", "lower", []float64{0.80, 0.81, 0.79, 0.82, 0.80, 0.78, 0.81, 0.80, 0.79, 1.10}, 9, true},
		{"eight wins", "lower", []float64{0.80, 0.81, 0.79, 0.82, 0.80, 0.78, 0.81, 0.80, 1.10, 1.10}, 8, false},
		{"inside the parent's spread", "lower", []float64{0.99, 1.01, 0.97, 1.00, 0.98, 1.02, 0.96, 0.99, 1.01, 0.97}, 10, false},
		{"higher is better", "higher", []float64{1.30, 1.31, 1.29, 1.32, 1.30, 1.28, 1.31, 1.30, 1.29, 1.30}, 10, true},
		{"a loss", "lower", []float64{1.30, 1.31, 1.29, 1.32, 1.30, 1.28, 1.31, 1.30, 1.29, 1.30}, 0, false},
	} {
		cmp := comparison{Workload: "w", Parent: "p", Pairs: 10, ParentRuns: runs("m", parent...), ChangeRuns: runs("m", c.change...)}
		for i := range cmp.ParentRuns {
			cmp.ParentRuns[i].Metrics["zero"], cmp.ChangeRuns[i].Metrics["zero"] = 0, 0
		}
		cmp.compare([]metricSpec{{"m", c.better}, {"absent", "lower"}, {"zero", "lower"}})
		if len(cmp.Metrics) != 1 {
			t.Fatalf("%s: %d verdicts, want one (a metric no run reports, or every run reads 0, is skipped)", c.name, len(cmp.Metrics))
		}
		v := cmp.Metrics[0]
		if v.Wins != c.wins || v.Claimable != c.claimable {
			t.Errorf("%s: %d wins, claimable %v; want %d, %v", c.name, v.Wins, v.Claimable, c.wins, c.claimable)
		}
	}
}

func TestLine(t *testing.T) {
	cmp := comparison{Workload: "view-xquery", Parent: "HEAD~1", FirstSeed: 4000, Pairs: 2,
		ParentRuns: []runResult{
			{Correct: true, Attempted: 1000, Failed: 1, Metrics: map[string]float64{"first_item_p50_ms": 0.4, "ops_s": 1500}},
			{Correct: true, Attempted: 1000, Metrics: map[string]float64{"first_item_p50_ms": 0.38, "ops_s": 1400}},
		},
		ChangeRuns: []runResult{
			{Correct: true, Attempted: 1200, Metrics: map[string]float64{"first_item_p50_ms": 0.3, "ops_s": 1800}},
			{Correct: false, Attempted: 1100, Metrics: map[string]float64{"first_item_p50_ms": 0.28, "ops_s": 1700}},
		},
	}
	cmp.compare([]metricSpec{{"first_item_p50_ms", "lower"}, {"ops_s", "higher"}})
	want := "`view-xquery` 2 pairs against HEAD~1, seeds 4000–4001 (median [q1–q3], change/parent, change-better pairs): " +
		"first_item_p50_ms 0.39 [0.385–0.395] → 0.29 [0.285–0.295] (0.74, 2/2, CLAIMABLE), " +
		"ops_s 1450 [1425–1475] → 1750 [1725–1775] (1.21, 2/2, CLAIMABLE); failed ops 1/2000 → 0/2300; 1 INCORRECT runs."
	if got := cmp.line(); got != want {
		t.Errorf("line:\n got %s\nwant %s", got, want)
	}
}

func TestParseRun(t *testing.T) {
	stdout := "building\n" + `{"correct":true,"attempted":50,"failed":2,"metrics":{"query_p50_ms":{"value":0.5,"unit":"ms"}}}` + "\n"
	stderr := "  end to end:\n    query_p50_ms   0.5000 ms\n  per layer:\n" +
		"    proc.registryd_cpu_ms_per_op         0.4120 ms\n    proc.server_peak_rss_mb   45.1 MB\n"
	r, err := parseRun(stdout, stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 50 || r.Failed != 2 || r.Metrics["query_p50_ms"] != 0.5 ||
		r.Metrics["proc.registryd_cpu_ms_per_op"] != 0.412 || r.Metrics["proc.server_peak_rss_mb"] != 45.1 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := parseRun("no json\n", ""); err == nil {
		t.Error("a run without its JSON line parsed")
	}
}

func TestReadBenchmark(t *testing.T) {
	decl, err := readBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds < 1 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	specs := decl.metrics()
	var names []string
	for _, s := range specs {
		names = append(names, s.Name+":"+s.Better)
	}
	got := strings.Join(names, " ")
	for _, want := range []string{"first_item_p50_ms:lower", "ops_s:higher", "proc.registryd_cpu_ms_per_op:lower"} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics %s lack %s", got, want)
		}
	}
	if strings.Contains(got, "proc.server_peak_rss_mb") {
		t.Errorf("metrics %s hold a proc column that is not CPU per op", got)
	}
}
