package xq

// MustCompileGeneral compiles src for the reference evaluation: every
// predicate is interpreted from its AST and no path step is fused, however
// much of the query the closure compiler could take. It is the oracle the
// differential tests hold the shared predicate engine to, and exists in
// test builds only.
func MustCompileGeneral(src string) *Query {
	q := MustCompile(src)
	q.general = true
	return q
}

// ShareTopLevel is shareTopLevel (corpus_test.go) for the external tests.
var ShareTopLevel = shareTopLevel
