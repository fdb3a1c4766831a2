// Command wsdaload is the process-level benchmark of the WSDA registry:
// it boots real registryd and routerd processes on loopback, publishes a
// generated population over HTTP, drives a seeded closed-loop request mix
// against them, verifies every answer and prints each metric by name with
// its unit. With -trace 1 it also replays the same generated ops
// in-process, layer by layer, with a span around every call. See
// ../README.md for the workloads, the metrics and how to read them.
//
// Run it from the bench directory (bench/run.sh does): the program builds
// the daemons from the checkout one level up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line the driver reads: the shape BENCHMARK.json declares.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloads = flag.String("workload", "all", "workload to run, a comma-separated list of them, or all")
		seed      = flag.Int64("seed", 1, "seed of the generated population, key popularity and op schedules")
		seconds   = flag.Int("seconds", 20, "length of the timed window; BENCHMARK.json's run_seconds is the value reported numbers use")
		trace     = flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	if err := run(*workloads, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "wsdaload:", err)
		killAll()
		os.Exit(1)
	}
}

func run(names string, seed int64, seconds int, trace bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var todo []spec
	if names == "all" {
		todo = specs
	} else {
		for _, n := range strings.Split(names, ",") {
			sp, ok := specByName(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			todo = append(todo, sp)
		}
	}
	repoRoot, err := filepath.Abs("..")
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "registryd")); err != nil {
		return fmt.Errorf("no cmd/registryd one level up: run from the bench directory of a checkout (%v)", err)
	}
	outDir, err := filepath.Abs("out")
	if err != nil {
		return err
	}
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	if err := buildDaemons(repoRoot, binDir); err != nil {
		return err
	}

	// SIGINT and SIGTERM must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	defer killAll() // also runs when a panic unwinds main's goroutine

	allCorrect := true
	for _, sp := range todo {
		res, err := runWorkload(sp, seed, time.Duration(seconds)*time.Second, trace, binDir, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		res.print(os.Stderr, trace)
		rep := report{Correct: res.correct(), Attempted: res.attempted(), Failed: res.failed(), Metrics: res.endToEnd}
		if trace {
			rep.Metrics = res.perLayer
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && rep.Correct
	}
	if !allCorrect {
		return fmt.Errorf("FAILED: wrong answers or a must-be-zero counter moved (see above)")
	}
	return nil
}

// sortedNames returns a metric map's keys in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
