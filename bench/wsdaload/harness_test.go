package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 6}, {0.9, 10}, {1, 11}, {0.25, 3.5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty class must have no percentile")
	}
}

func TestMedianSlice(t *testing.T) {
	// One burst slice must not move the reported value.
	if got := median([]float64{100, 101, 99, 100, 400, 100}); got != 100 {
		t.Errorf("median with one burst = %v, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count median = %v, want 2.5", got)
	}
	// CPU per op, slice by slice; the empty slice is skipped.
	got := perSliceRatio([]float64{10, 20, 90, 0}, []float64{10, 10, 10, 0})
	if got != 2 {
		t.Errorf("perSliceRatio = %v, want 2", got)
	}
	const window = int64(6e9)
	for _, c := range []struct {
		done int64
		want int
	}{{0, 0}, {999_999_999, 0}, {1e9, 1}, {5_999_999_999, 5}, {6e9, -1}, {-1, -1}} {
		if got := sliceOf(c.done, window, 6); got != c.want {
			t.Errorf("sliceOf(%d) = %d, want %d", c.done, got, c.want)
		}
	}
}

// scheduleText renders the first n ops of one client's schedule.
func scheduleText(sp spec, seed int64, client, n int) string {
	ds := buildDataset(sp, seed)
	cs := newClientState(sp, ds, seed, client, 2)
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := sp.next(ds, cs)
		link := o.link
		if o.tuple != nil {
			link = o.tuple.Link + "|" + o.tuple.Content.String()
		}
		fmt.Fprintf(&b, "%d %d %q %q %d\n", o.kind, o.class, o.query, link, o.want)
	}
	return b.String()
}

func TestScheduleIsAFunctionOfSeedAndClient(t *testing.T) {
	for _, sp := range specs {
		a := scheduleText(sp, 7, 1, 300)
		if b := scheduleText(sp, 7, 1, 300); a != b {
			t.Errorf("%s: same (seed, client) gave two schedules", sp.name)
		}
		if b := scheduleText(sp, 8, 1, 300); a == b {
			t.Errorf("%s: another seed gave the same schedule", sp.name)
		}
		if b := scheduleText(sp, 7, 0, 300); a == b {
			t.Errorf("%s: another client gave the same schedule", sp.name)
		}
	}
}

func TestDatasetAnswers(t *testing.T) {
	sp, _ := specByName("publish-churn")
	ds := buildDataset(sp, 3)
	if len(ds.tuples) != sp.pop || len(ds.spare) != spareTuples {
		t.Fatalf("population %d spare %d", len(ds.tuples), len(ds.spare))
	}
	perCtx := map[string]int{}
	for _, tu := range ds.tuples {
		perCtx[tu.Context]++
	}
	if perCtx["ctx-07"] != stableHalf/ctxValues || perCtx["churn"] != sp.pop-stableHalf {
		t.Errorf("ctx sizes: %v", perCtx)
	}
	for _, tu := range append(ds.tuples[stableHalf:], ds.spare...) {
		if strings.Contains(tu.Link, "storage-element") {
			t.Fatalf("churned half holds a storage element: %s", tu.Link)
		}
	}
	if ds.wantQ7 == 0 || ds.domains != 10 {
		t.Errorf("wantQ7=%d domains=%d", ds.wantQ7, ds.domains)
	}
}

// A /metrics body as registryd serves it, cut to the families the harness
// reads plus one of each shape it must skip.
const capturedMetrics = `# HELP wsda_http_first_item_seconds Time from request start to the first streamed result item leaving the HTTP edge.
# TYPE wsda_http_first_item_seconds histogram
wsda_http_first_item_seconds_bucket{path="xquery",le="0.001"} 3
wsda_http_first_item_seconds_bucket{path="xquery",le="+Inf"} 4
wsda_http_first_item_seconds_sum{path="xquery"} 0.000437689
wsda_http_first_item_seconds_count{path="xquery"} 4
# TYPE wsda_registry_plan_hit_total counter
wsda_registry_plan_hit_total{registry="shard0",mode="index"} 7
wsda_registry_plan_hit_total{registry="shard0",mode="scan"} 1
wsda_registry_plan_fallback_total{registry="shard0"} 2
wsda_registry_live_tuples 4000
wsda_router_fanout_total{route="scatter"} 5
wsda_router_fanout_total{route="single"} 9
wsda_registry_xquery_seconds_sum{registry="a b"} 1.9024e-05
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(capturedMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before[`wsda_http_first_item_seconds_bucket{path="xquery",le="0.001"}`]; ok {
		t.Error("buckets must be dropped")
	}
	if got := before.sum("wsda_registry_plan_hit_total"); got != 8 {
		t.Errorf("family sum over label sets = %v, want 8", got)
	}
	if got := before.sum("wsda_router_fanout_total", `route="single"`); got != 9 {
		t.Errorf("label-selected sum = %v, want 9", got)
	}
	if got := before.sum("wsda_registry_plan_hit"); got != 0 {
		t.Errorf("a family name must match whole, got %v", got)
	}
	if got := before[`wsda_registry_xquery_seconds_sum{registry="a b"}`]; got != 1.9024e-05 {
		t.Errorf("label value with a space: %v", got)
	}
	after, _ := parseProm(strings.NewReader(strings.Replace(capturedMetrics, `mode="index"} 7`, `mode="index"} 19`, 1) +
		"wsda_router_shard_errors_total{shard=\"s1\"} 2\n"))
	d := promDelta(before, after)
	if got := d.sum("wsda_registry_plan_hit_total"); got != 12 {
		t.Errorf("delta = %v, want 12", got)
	}
	if got := d.sum("wsda_router_shard_errors_total"); got != 2 {
		t.Errorf("a series born in the window counts from zero: %v", got)
	}
	if _, err := parseProm(strings.NewReader("wsda_x notanumber\n")); err == nil {
		t.Error("a malformed value must be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	// comm holds a space and a ')': fields count from the last ')'.
	line := "4242 (regis tryd) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 9 0 123456 1234567890 2345 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(157+43) * 1000 / clockTick; cpu != want {
		t.Errorf("cpu = %v ms, want %v", cpu, want)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("no command field must be an error")
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("a short line must be an error")
	}
	h := parseHostCPU("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if h.total != 1000 || h.steal != 35 {
		t.Errorf("host cpu = %+v", h)
	}
	if got := statusField("Name:\tx\nVmHWM:\t  2048 kB\n", "VmHWM"); got != 2048 {
		t.Errorf("VmHWM = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] holds query [10,70] and parse [80,95]; query holds two
	// write_item spans [20,30] and [40,55].
	rec := &recorder{}
	rec.spans = []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "query", Start: 10, End: 70},
		{ID: 2, Parent: 1, Name: "write_item", Start: 20, End: 30},
		{ID: 3, Parent: 1, Name: "write_item", Start: 40, End: 55},
		{ID: 4, Parent: 0, Name: "parse", Start: 80, End: 95},
	}
	self := selfTimes(rec.spans)
	for i, want := range []int64{25, 35, 10, 15, 15} {
		if self[i] != want {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want)
		}
	}
	var total int64
	for _, s := range self {
		total += s
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
	by := selfUSByName(rec.spans, func(s span) bool { return s.ID != 2 })
	if len(by["write_item"]) != 1 || by["write_item"][0] != 0.015 || by["query"][0] != 0.035 {
		t.Errorf("by name: %v", by)
	}
}

func TestRecorderNestsAndNilIsOff(t *testing.T) {
	var off *recorder
	off.end(off.begin("x")) // must not panic
	rec := &recorder{}
	a := rec.begin("a")
	b := rec.begin("b")
	rec.end(b)
	c := rec.begin("c")
	rec.end(c)
	rec.end(a)
	if rec.spans[b].Parent != a || rec.spans[c].Parent != a || rec.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", rec.spans)
	}
}
