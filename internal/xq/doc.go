// Package xq implements the XQuery subset used by the WSDA hyper registry
// and the Unified Peer-to-Peer Database Framework (thesis Ch. 3). It covers
// FLWOR expressions, path expressions with predicates, quantified and
// conditional expressions, direct and computed element constructors, and a
// library of about forty built-in functions — enough to express every
// simple, medium and complex discovery query the thesis formulates.
//
// The engine is written from scratch on the Go standard library: a
// hand-rolled lexer and recursive-descent parser produce an AST that is
// evaluated against trees from internal/xmldoc. Path-step predicates inside
// a small boolean grammar compile once per query into closures (plan.go);
// the interpreter filters and walks path steps through them, and the
// registry's planner runs the same closures over single tuples.
package xq
