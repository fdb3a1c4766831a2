package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// docIDs returns the experiment IDs of a markdown file, upper-cased in
// file order: the first word of every "## E…" heading when rows is false,
// else the first cell of every "| E… |" table row under the heading named
// section.
func docIDs(t *testing.T, path, section string, rows bool) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## "+section
			if !rows && strings.HasPrefix(line, "## E") {
				ids = append(ids, strings.ToUpper(strings.Fields(line)[1]))
			}
			continue
		}
		if rows && in && strings.HasPrefix(line, "| E") {
			ids = append(ids, strings.ToUpper(strings.TrimSpace(strings.Split(line, "|")[1])))
		}
	}
	return ids
}

// The harness, EXPERIMENTS.md (a section and a summary row each) and
// DESIGN.md's experiment index name the same experiments: one that runs
// but is not reported, or is reported but no longer runs, fails here.
func TestExperimentIndexMatchesDocs(t *testing.T) {
	var ids []string
	for _, r := range runners(true) {
		if slices.Contains(ids, r.id) {
			t.Errorf("runner %s listed twice", r.id)
		}
		ids = append(ids, r.id)
	}
	slices.Sort(ids)
	for _, doc := range []struct {
		what string
		ids  []string
	}{
		{"EXPERIMENTS.md sections", docIDs(t, "../../EXPERIMENTS.md", "", false)},
		{"EXPERIMENTS.md summary rows", docIDs(t, "../../EXPERIMENTS.md", "Summary", true)},
		{"DESIGN.md index rows", docIDs(t, "../../DESIGN.md", "Experiment index", true)},
	} {
		got := slices.Clone(doc.ids)
		slices.Sort(got)
		if !slices.Equal(got, ids) {
			t.Errorf("%s = %v, runners = %v", doc.what, doc.ids, ids)
		}
	}
}
