package registry

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
