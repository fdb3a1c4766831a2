// Package xq implements the XQuery subset used by the WSDA hyper registry
// and the Unified Peer-to-Peer Database Framework (thesis Ch. 3). It covers
// FLWOR expressions, path expressions with predicates, quantified and
// conditional expressions, direct and computed element constructors, and a
// library of about forty built-in functions — enough to express every
// simple, medium and complex discovery query the thesis formulates.
//
// The engine is written from scratch on the Go standard library: a
// table-driven lexer and a recursive-descent parser produce an AST that is
// evaluated against trees from internal/xmldoc. The parser reads as its
// grammar: a syntax error bails out by panicking with a private type that
// Compile's parse recovers (anything else is re-panicked), and the nine
// binary-operator levels are rows of one precedence table. Expressions
// and direct constructors nest at most MaxDepth deep, so a hostile query
// cannot exhaust the stack. Path-step predicates inside
// a small boolean grammar compile once per query into closures (plan.go);
// the interpreter filters and walks path steps through them. A discovery
// query with a tuple head can read its <tuple> members from a source (the
// registry's soft-state indexes) in place of a document, evaluated by the
// same code under the same step meter.
package xq
