// Command benchpair compares a change with its parent on the process-level
// benchmark the way a claim is judged: it exports both revisions side by
// side (git archive, so nothing is fetched and .git gains no worktree),
// then runs `bash bench/run.sh` in both trees, alternately, for a number of
// pairs per workload, swapping which tree goes first each pair, on
// consecutive seeds it prints, for the run length BENCHMARK.json sets. For
// every end-to-end metric BENCHMARK.json lists and every
// proc.*_cpu_ms_per_op column of the run's report it gives each side's
// median and quartiles, the change/parent ratio of the medians, how many
// pairs the change won, and the verdict a claim on it would get: won at
// least nine pairs in ten, by a gap between the medians wider than the
// parent's interquartile range. It writes the comparison as JSON and one
// line per workload for CHANGES.md.
//
// Usage, from the root of the checkout that holds the change:
//
//	go run ./cmd/benchpair -parent HEAD~1 -workloads view-xquery -pairs 10 -seed 4000
//	go run ./cmd/benchpair -parent HEAD~1 -workloads point-lookup,routed-scatter -pairs 5 -seed 4100 -json pairs.json
//
// The change is the checkout's tracked files as they are (git stash
// create), or HEAD when none is modified; untracked files are left out.
// Each run takes the run length plus its set-up (about half a minute at
// 20 s). The exported trees are removed at the end; the runs' own reports
// stay in a log under the temporary directory, named when it starts.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		parent    = flag.String("parent", "HEAD", "the revision to compare against, exported with git archive")
		workloads = flag.String("workloads", "view-xquery", "comma-separated workloads")
		pairs     = flag.Int("pairs", 10, "parent/change pairs per workload")
		seed      = flag.Int64("seed", 4000, "the first workload's first seed; each pair takes the next, each workload starts 100 on")
		out       = flag.String("json", "", "also write the comparison as JSON to this file")
	)
	flag.Parse()
	if err := run(*parent, strings.Split(*workloads, ","), *pairs, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(rev string, workloads []string, pairs int, seed int64, out string) error {
	if pairs < 1 {
		return errors.New("-pairs must be at least 1")
	}
	repo, err := os.Getwd()
	if err != nil {
		return err
	}
	decl, err := readBenchmark(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	changeRev, err := git(repo, "stash", "create")
	if err != nil {
		return err
	}
	if changeRev = strings.TrimSpace(changeRev); changeRev == "" {
		changeRev = "HEAD"
	}
	dir, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	parentTree, change := filepath.Join(dir, "parent"), filepath.Join(dir, "change")
	for _, t := range [2][2]string{{rev, parentTree}, {changeRev, change}} {
		if err := export(repo, t[0], t[1]); err != nil {
			return err
		}
	}
	logf, err := os.CreateTemp("", "benchpair-*.log")
	if err != nil {
		return err
	}
	defer logf.Close()
	fmt.Fprintf(os.Stderr, "benchpair: parent %s and change %s exported under %s; run reports in %s\n", rev, changeRev, dir, logf.Name())
	var cmps []comparison
	for w, name := range workloads {
		first := seed + int64(100*w)
		fmt.Fprintf(os.Stderr, "benchpair: %s, %d pairs on seeds %d-%d\n", name, pairs, first, first+int64(pairs)-1)
		c := comparison{Workload: name, Parent: rev, FirstSeed: first, Pairs: pairs}
		for i := 0; i < pairs; i++ {
			s := first + int64(i)
			trees := [2]string{parentTree, change}
			if i%2 == 1 {
				trees[0], trees[1] = change, parentTree
			}
			var got [2]runResult
			for j, tree := range trees {
				r, err := benchRun(tree, name, s, decl.RunSeconds, logf)
				if err != nil {
					return fmt.Errorf("%s seed %d in %s: %w", name, s, tree, err)
				}
				got[j] = r
			}
			p, ch := got[0], got[1]
			if i%2 == 1 {
				p, ch = ch, p
			}
			c.ParentRuns, c.ChangeRuns = append(c.ParentRuns, p), append(c.ChangeRuns, ch)
			fmt.Fprintf(os.Stderr, "benchpair: %s seed %d done (%s first)\n", name, s, map[bool]string{true: "parent", false: "change"}[i%2 == 0])
		}
		c.compare(decl.metrics())
		cmps = append(cmps, c)
		fmt.Println(c.line())
	}
	if out != "" {
		b, err := json.MarshalIndent(cmps, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(out, append(b, '\n'), 0o644)
	}
	return nil
}

// metricSpec is one compared metric and the direction that is better.
type metricSpec struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// benchmark is what BENCHMARK.json declares that benchpair reads.
type benchmark struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func readBenchmark(path string) (benchmark, error) {
	var decl benchmark
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &decl)
	}
	if err == nil && decl.RunSeconds < 1 {
		err = errors.New("no run_seconds")
	}
	if err != nil {
		return decl, fmt.Errorf("%s: %w", path, err)
	}
	return decl, nil
}

// metrics returns the end-to-end metrics and the proc.*_cpu_ms_per_op
// columns, in that order.
func (d benchmark) metrics() []metricSpec {
	specs := slices.Clone(d.EndToEnd)
	for _, m := range d.PerLayer {
		if strings.HasPrefix(m.Name, "proc.") && strings.HasSuffix(m.Name, "_cpu_ms_per_op") {
			specs = append(specs, m)
		}
	}
	return specs
}

// git runs git in repo and returns its output.
func git(repo string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = repo
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}

// export writes the tree of rev under dst: git archive rev | tar -x -C dst.
func export(repo, rev, dst string) error {
	archive, err := git(repo, "archive", "--format=tar", rev)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	tar := exec.Command("tar", "-x", "-C", dst)
	tar.Stdin = strings.NewReader(archive)
	if out, err := tar.CombinedOutput(); err != nil {
		return fmt.Errorf("unpacking %s: %v: %s", rev, err, out)
	}
	return nil
}

// runResult is what one bench/run.sh run reported: its JSON line's
// end-to-end metrics and counts, and the per-layer rows of its report.
type runResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// benchRun runs the benchmark once in tree and reads its result; the
// run's report goes to log.
func benchRun(tree, workload string, seed int64, seconds int, log io.Writer) (runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	fmt.Fprintf(log, "== %s %s seed %d\n%s%s", tree, workload, seed, stderr.String(), stdout.String())
	if err != nil {
		return runResult{}, fmt.Errorf("%v (see the run log)", err)
	}
	return parseRun(stdout.String(), stderr.String())
}

// parseRun reads a run's last stdout line, the JSON the benchmark
// contract declares, and the per-layer rows of its report on stderr.
func parseRun(stdout, stderr string) (runResult, error) {
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var rep struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return runResult{}, fmt.Errorf("reading the run's JSON line: %w", err)
	}
	r := runResult{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]float64{}}
	for name, m := range rep.Metrics {
		r.Metrics[name] = m.Value
	}
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && strings.HasPrefix(f[0], "proc.") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				r.Metrics[f[0]] = v
			}
		}
	}
	return r, nil
}

// comparison is one workload's pairs and what they show.
type comparison struct {
	Workload   string      `json:"workload"`
	Parent     string      `json:"parent"`
	FirstSeed  int64       `json:"first_seed"`
	Pairs      int         `json:"pairs"`
	ParentRuns []runResult `json:"parent_runs"`
	ChangeRuns []runResult `json:"change_runs"`
	Metrics    []verdict   `json:"metrics"`
	Failed     [2]int      `json:"failed_ops"` // parent, change: over all runs
	Attempted  [2]int      `json:"attempted_ops"`
	Incorrect  int         `json:"incorrect_runs"`
}

// verdict is one metric over a workload's pairs.
type verdict struct {
	metricSpec
	Parent quartiles `json:"parent"`
	Change quartiles `json:"change"`
	Ratio  float64   `json:"ratio"` // change median / parent median; 0 when the parent's is 0
	Wins   int       `json:"wins"`  // pairs in which the change was better
	// Claimable: the change won at least nine pairs in ten, and its median
	// is better than the parent's by more than the parent's q3-q1.
	Claimable bool `json:"claimable"`
}

// quartiles are one side's first quartile, median and third quartile.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// compare fills in the verdicts and the op counts.
func (c *comparison) compare(specs []metricSpec) {
	c.Metrics = nil
	for side, runs := range [2][]runResult{c.ParentRuns, c.ChangeRuns} {
		for _, r := range runs {
			c.Failed[side] += r.Failed
			c.Attempted[side] += r.Attempted
			if !r.Correct {
				c.Incorrect++
			}
		}
	}
	for _, m := range specs {
		var p, ch []float64
		wins := 0
		for i := range c.ParentRuns {
			pv, pok := c.ParentRuns[i].Metrics[m.Name]
			cv, cok := c.ChangeRuns[i].Metrics[m.Name]
			if !pok || !cok {
				continue
			}
			p, ch = append(p, pv), append(ch, cv)
			if m.better(cv, pv) {
				wins++
			}
		}
		if !slices.ContainsFunc(append(p, ch...), func(x float64) bool { return x != 0 }) {
			continue // not measured on this workload (routerd's CPU without a router)
		}
		v := verdict{metricSpec: m, Parent: quartilesOf(p), Change: quartilesOf(ch), Wins: wins}
		if v.Parent.Median != 0 {
			v.Ratio = v.Change.Median / v.Parent.Median
		}
		v.Claimable = wins*10 >= 9*len(p) && m.better(v.Change.Median, v.Parent.Median) &&
			math.Abs(v.Change.Median-v.Parent.Median) > v.Parent.Q3-v.Parent.Q1
		c.Metrics = append(c.Metrics, v)
	}
}

// better reports whether a is better than b for this metric.
func (m metricSpec) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// quartilesOf returns the quartiles of xs, interpolated between order
// statistics (the method most statistics packages default to).
func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		h := q * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return quartiles{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// line is the comparison as one line for CHANGES.md: the pairs and seeds,
// then each metric's parent and change medians with their quartiles, the
// ratio, the wins, and CLAIMABLE where a claim on it would hold.
func (c *comparison) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "`%s` %d pairs against %s, seeds %d–%d (median [q1–q3], change/parent, change-better pairs):",
		c.Workload, c.Pairs, c.Parent, c.FirstSeed, c.FirstSeed+int64(c.Pairs)-1)
	for i, v := range c.Metrics {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(&b, "%s %s %s [%s–%s] → %s [%s–%s] (%.2f, %d/%d", sep, v.Name,
			num(v.Parent.Median), num(v.Parent.Q1), num(v.Parent.Q3),
			num(v.Change.Median), num(v.Change.Q1), num(v.Change.Q3), v.Ratio, v.Wins, c.Pairs)
		if v.Claimable {
			b.WriteString(", CLAIMABLE")
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, "; failed ops %d/%d → %d/%d", c.Failed[0], c.Attempted[0], c.Failed[1], c.Attempted[1])
	if c.Incorrect > 0 {
		fmt.Fprintf(&b, "; %d INCORRECT runs", c.Incorrect)
	}
	return b.String() + "."
}

// num prints a reading with four significant digits, or as a whole
// number from 1000 on.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
