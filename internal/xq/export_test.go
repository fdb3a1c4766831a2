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

// MemoCap is memoCap for the external tests.
const MemoCap = memoCap

// MemoFootprint reports what m holds: its keys, and an estimate of their
// bytes — each node list once (an index or a key column shares its
// list's), each index's values and positions, each key column's cells,
// each key, and the rank map, with Go's map slots.
func MemoFootprint(m *Memo) (keys, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lists := map[*Item]bool{}
	for k, s := range m.sets {
		bytes += len(k.path) + 64 // the key, the entry and its slot
		if len(s.nodes) > 0 && !lists[&s.nodes[0]] {
			lists[&s.nodes[0]] = true
			bytes += 16 * cap(s.nodes)
		}
		for v, at := range s.index {
			bytes += len(v) + 48 + 4*cap(at)
		}
		bytes += 16*cap(s.cells) + 24*len(s.ranks)
	}
	return len(m.sets), bytes
}
