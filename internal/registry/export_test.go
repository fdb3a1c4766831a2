package registry

import (
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
)

// CanonicalQuerySource is the compiled-query cache's key function, exposed
// with the inputs of its pinned cases to the external fuzz test, which
// needs the workload package (an importer of this one) for its seeds.
var CanonicalQuerySource = canonicalQuerySource

// CanonicalInputs returns the inputs of TestCanonicalQuerySource's cases.
func CanonicalInputs() []string {
	var in []string
	for _, c := range canonicalCases {
		in = append(in, c.in)
	}
	return in
}

// PinnedMembers pins the filter's tuple set and returns its shared member
// elements with, parallel to them, the tuples they render.
func PinnedMembers(r *Registry, f Filter) ([]*xmldoc.Node, []*tuple.Tuple) {
	s, _, _ := r.pin(f, Freshness{})
	tuples := make([]*tuple.Tuple, len(s.vals))
	for i, v := range s.vals {
		tuples[i] = v.Tuple
	}
	return s.root.Children, tuples
}
