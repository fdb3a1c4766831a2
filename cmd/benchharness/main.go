// Command benchharness regenerates every table and figure of the
// evaluation (experiments E1–E13, E16–E18, E20 and E21, indexed in
// DESIGN.md and reported in EXPERIMENTS.md) at full scale and prints them
// as aligned text tables. Use -quick for a fast smoke run and -only to
// select individual experiments.
//
//	benchharness            # everything, full scale (minutes)
//	benchharness -quick     # everything, small scale (seconds)
//	benchharness -only E5,E7
//	benchharness -quick -json results.json   # machine-readable results
//
// With -json the run also writes a JSON document holding every table plus
// a telemetry snapshot (per-phase wall-clock histogram), so CI can diff
// regression runs without scraping the text output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"wsda/internal/experiments"
	"wsda/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale versions")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5)")
	jsonOut := flag.String("json", "", "also write results + metrics snapshot to this file as JSON")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	metrics := telemetry.NewMetrics()
	phaseSeconds := metrics.HistogramVec("wsda_bench_phase_seconds",
		"Wall-clock time per experiment phase.", nil, "experiment")
	phasesRun := metrics.Counter("wsda_bench_phases_total", "Experiment phases executed.")

	type result struct {
		ID        string     `json:"id"`
		Title     string     `json:"title"`
		Note      string     `json:"note,omitempty"`
		Header    []string   `json:"header"`
		Rows      [][]string `json:"rows"`
		ElapsedMS float64    `json:"elapsed_ms"`
	}
	var results []result

	start := time.Now()
	for _, r := range runners(*quick) {
		if !selected(r.id) {
			continue
		}
		t0 := time.Now()
		tab, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		elapsed := time.Since(t0)
		phaseSeconds.With(r.id).ObserveDuration(elapsed)
		phasesRun.Inc()
		fmt.Println(tab.String())
		fmt.Printf("   [%s completed in %v]\n\n", r.id, elapsed.Round(time.Millisecond))
		results = append(results, result{
			ID: tab.ID, Title: tab.Title, Note: tab.Note,
			Header: tab.Header, Rows: tab.Rows,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		})
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected")
		os.Exit(2)
	}
	fmt.Printf("ran %d experiments in %v\n", len(results), time.Since(start).Round(time.Millisecond))

	if *jsonOut != "" {
		doc := struct {
			Quick     bool                       `json:"quick"`
			ElapsedMS float64                    `json:"elapsed_ms"`
			Results   []result                   `json:"results"`
			Metrics   []telemetry.FamilySnapshot `json:"metrics"`
		}{
			Quick:     *quick,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Results:   results,
			Metrics:   metrics.Snapshot(),
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatalf("json: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatalf("json: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// runner is one experiment of the harness: its ID, as -only names it and
// as EXPERIMENTS.md heads its section, and the run at the chosen scale.
type runner struct {
	id  string
	run func() (*experiments.Table, error)
}

// runners lists every experiment in run order, at small scale when q is
// set.
func runners(q bool) []runner {
	return []runner{
		{"E1", func() (*experiments.Table, error) {
			return experiments.E1QueryTypes(pick(q, 200, 1000))
		}},
		{"E2", func() (*experiments.Table, error) {
			if q {
				return experiments.E2Publish([]int{100, 1000})
			}
			return experiments.E2Publish([]int{100, 1000, 10_000, 50_000})
		}},
		{"E3", func() (*experiments.Table, error) {
			return experiments.E3Cache(pick(q, 300, 2000),
				[]int{0, 25, 50, 75, 100}, 200*time.Microsecond)
		}},
		{"E4", func() (*experiments.Table, error) {
			return experiments.E4SoftState(pick(q, 100, 1000), []float64{1.5, 2, 4, 8}, 0.5)
		}},
		{"E5", func() (*experiments.Table, error) {
			return experiments.E5ResponseModes(pick(q, 16, 64), time.Millisecond)
		}},
		{"E5B", func() (*experiments.Table, error) {
			if q {
				return experiments.E5Selectivity(16, []int{1, 8, 16}, 0)
			}
			return experiments.E5Selectivity(32, []int{1, 2, 4, 8, 16, 32}, time.Millisecond)
		}},
		{"E6", func() (*experiments.Table, error) {
			if q {
				return experiments.E6Pipelining([]int{4, 16}, time.Millisecond)
			}
			return experiments.E6Pipelining([]int{2, 4, 8, 16, 32, 64}, time.Millisecond)
		}},
		{"E7", func() (*experiments.Table, error) {
			if q {
				return experiments.E7Timeouts([]time.Duration{60 * time.Millisecond})
			}
			return experiments.E7Timeouts([]time.Duration{
				10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
				100 * time.Millisecond, 200 * time.Millisecond,
			})
		}},
		{"E8", func() (*experiments.Table, error) {
			return experiments.E8NeighborSelection(pick(q, 48, 256),
				[]int{1, 2, 3, 4}, []int{1, 2, 3, 4, 6})
		}},
		{"E9", func() (*experiments.Table, error) {
			if q {
				return experiments.E9Containers([]int{8}, 2*time.Millisecond)
			}
			return experiments.E9Containers([]int{2, 4, 8, 16, 32, 64}, 2*time.Millisecond)
		}},
		{"E10", func() (*experiments.Table, error) {
			return experiments.E10LoopDetection(pick(q, 25, 100))
		}},
		{"E11", func() (*experiments.Table, error) {
			if q {
				return experiments.E11Scalability([]int{16, 64}, 200*time.Microsecond)
			}
			return experiments.E11Scalability([]int{16, 64, 256, 1024}, 200*time.Microsecond)
		}},
		{"E12", func() (*experiments.Table, error) {
			return experiments.E12WSDAPrimitives(pick(q, 200, 1000))
		}},
		{"E13", func() (*experiments.Table, error) {
			if q {
				return experiments.E13Federation([]int{8}, 5)
			}
			return experiments.E13Federation([]int{8, 32, 128}, 20)
		}},
		{"E16", func() (*experiments.Table, error) {
			if q {
				return experiments.E16FaultTolerance([]float64{0.2}, []float64{0.25}, 4)
			}
			return experiments.E16FaultTolerance([]float64{0.1, 0.2, 0.3}, []float64{0.25, 0.5}, 8)
		}},
		{"E16B", func() (*experiments.Table, error) {
			if q {
				return experiments.E16AbortDegradation([]float64{0.15}, 3)
			}
			return experiments.E16AbortDegradation([]float64{0, 0.1, 0.2}, 5)
		}},
		{"E17", func() (*experiments.Table, error) {
			if q {
				return experiments.E17StreamedDelivery([]int{4, 8}, time.Millisecond)
			}
			return experiments.E17StreamedDelivery([]int{4, 8, 16, 32}, 2*time.Millisecond)
		}},
		{"E18", func() (*experiments.Table, error) {
			if q {
				return experiments.E18OverloadTriage(8, 12)
			}
			return experiments.E18OverloadTriage(10, 40)
		}},
		{"E20", func() (*experiments.Table, error) {
			if q {
				return experiments.E20ShardScaleOut([]int{1, 2, 4}, 50_000, 200)
			}
			return experiments.E20ShardScaleOut([]int{1, 2, 4, 8}, 1_000_000, 400)
		}},
		{"E21", func() (*experiments.Table, error) {
			if q {
				return experiments.E21TenantOverload(16, 1200, 30)
			}
			return experiments.E21TenantOverload(24, 2500, 60)
		}},
	}
}

func pick(quick bool, small, large int) int {
	if quick {
		return small
	}
	return large
}
