// Package experiments implements the reproduction of every table and
// figure in the evaluation (see DESIGN.md for the experiment index, E1–E13,
// E16–E18, E20 and E21, and the mapping to thesis chapters). Each
// experiment is a pure function from parameters to a Table so that both
// the benchmark suite (bench_test.go) and the harness binary
// (cmd/benchharness) share one implementation.
package experiments
