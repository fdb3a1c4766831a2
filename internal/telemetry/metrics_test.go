package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("test_total", "")
	const goroutines, perG = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Value() = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	m := NewMetrics()
	v := m.CounterVec("test_labeled_total", "", "node")
	const goroutines, perG = 8, 2_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Alternate between a shared child and a per-goroutine child so
			// both the fast read path and the create path race.
			mine := string(rune('a' + g))
			for i := 0; i < perG; i++ {
				v.With("shared").Inc()
				v.With(mine).Inc()
			}
		}(g)
	}
	wg.Wait()
	if got := v.With("shared").Value(); got != goroutines*perG {
		t.Fatalf("shared child = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := v.With(string(rune('a' + g))).Value(); got != perG {
			t.Fatalf("child %c = %d, want %d", 'a'+g, got, perG)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("test_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	const goroutines, perG = 8, 5_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(0.005)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count() = %d, want %d", got, goroutines*perG)
	}
	want := 0.005 * goroutines * perG
	if got := h.Sum(); math.Abs(got-want) > 1e-3 {
		t.Fatalf("Sum() = %g, want ~%g", got, want)
	}
	// All observations landed in the (0.001, 0.01] bucket, so every
	// quantile interpolates inside it.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if v := h.Quantile(q); v <= 0.001 || v > 0.01 {
			t.Fatalf("Quantile(%v) = %g, want in (0.001, 0.01]", q, v)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in first bucket
	}
	if v := h.Quantile(0.5); v <= 0 || v > 1 {
		t.Fatalf("Quantile(0.5) = %g, want in (0, 1]", v)
	}
	h.Observe(100) // overflow bucket reports the largest finite bound
	if v := h.Quantile(1); v != 4 {
		t.Fatalf("Quantile(1) = %g, want 4", v)
	}
	var empty Histogram
	if v := empty.Quantile(0.5); v != 0 {
		t.Fatalf("empty Quantile = %g, want 0", v)
	}
}

// TestWritePrometheusGolden pins the exact exposition output: family and
// series ordering, label escaping, cumulative histogram buckets.
func TestWritePrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.Counter("test_requests_total", "Requests served.").Add(3)
	m.Gauge("test_queue_depth", "Queue depth.").Set(7.5)
	v := m.CounterVec("test_hits_total", "Hits per node.", "node")
	v.With("b").Add(2)
	v.With(`a"quoted\`).Add(1)
	h := m.Histogram("test_latency_seconds", "Latency.", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(7)
	m.CounterFunc("test_fn_total", "Bridged counter.", func() int64 { return 42 })

	want := strings.Join([]string{
		`# HELP test_fn_total Bridged counter.`,
		`# TYPE test_fn_total counter`,
		`test_fn_total 42`,
		`# HELP test_hits_total Hits per node.`,
		`# TYPE test_hits_total counter`,
		`test_hits_total{node="a\"quoted\\"} 1`,
		`test_hits_total{node="b"} 2`,
		`# HELP test_latency_seconds Latency.`,
		`# TYPE test_latency_seconds histogram`,
		`test_latency_seconds_bucket{le="1"} 1`,
		`test_latency_seconds_bucket{le="5"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		`test_latency_seconds_sum 10.5`,
		`test_latency_seconds_count 3`,
		`# HELP test_queue_depth Queue depth.`,
		`# TYPE test_queue_depth gauge`,
		`test_queue_depth 7.5`,
		`# HELP test_requests_total Requests served.`,
		`# TYPE test_requests_total counter`,
		`test_requests_total 3`,
	}, "\n") + "\n"

	var sb strings.Builder
	m.WritePrometheus(&sb)
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter("s_total", "").Add(5)
	m.HistogramVec("s_seconds", "", []float64{1, 2}, "phase").With("p1").Observe(0.5)
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d families, want 2", len(snap))
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range snap {
		byName[f.Name] = f
	}
	if v := byName["s_total"].Series[0].Value; v != 5 {
		t.Fatalf("s_total = %g, want 5", v)
	}
	hs := byName["s_seconds"].Series[0]
	if hs.Labels["phase"] != "p1" {
		t.Fatalf("labels = %v, want phase=p1", hs.Labels)
	}
	if hs.Hist == nil || hs.Hist.Count != 1 || hs.Hist.Sum != 0.5 {
		t.Fatalf("hist = %+v, want count=1 sum=0.5", hs.Hist)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	m := NewMetrics()
	m.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x_total as a gauge should panic")
		}
	}()
	m.Gauge("x_total", "")
}

// TestNilSafety exercises every instrument method on nil receivers — the
// disabled-telemetry configuration every library package runs with by
// default. Any panic here breaks telemetry-off users.
func TestNilSafety(t *testing.T) {
	var m *Metrics
	c := m.Counter("n_total", "")
	c.Add(1)
	c.Inc()
	_ = c.Value()
	g := m.Gauge("n_gauge", "")
	g.Set(1)
	_ = g.Value()
	h := m.Histogram("n_seconds", "", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	_ = h.Count()
	_ = h.Sum()
	_ = h.Quantile(0.5)
	m.CounterFunc("n_fn", "", func() int64 { return 0 })
	m.GaugeFunc("n_gfn", "", func() float64 { return 0 })
	m.CounterVec("n_cv", "", "l").With("v").Inc()
	m.GaugeVec("n_gv", "", "l").With("v").Set(1)
	m.HistogramVec("n_hv", "", nil, "l").With("v").Observe(1)
	m.WritePrometheus(&strings.Builder{})
	if m.Snapshot() != nil {
		t.Fatal("nil Metrics Snapshot should be nil")
	}
}

// Benchmarks proving the disabled configuration costs only a nil check.
// cmd/benchguard holds the Nil ones to zero allocations. The <=5ns/op bar
// is not enforced: a predicted branch on nil runs in well under 1ns, but
// a shared host can read more (5.51ns/op for NilFlightRecord on 2 vCPUs).

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.0)
	}
}

func BenchmarkNilFlightRecord(b *testing.B) {
	var fr *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr.Record("t", FlightEval, "n", "", 1, "")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	m := NewMetrics()
	c := m.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	m := NewMetrics()
	h := m.Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}
