package softstate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelEntry is the reference model's view of one key: what the store
// holds for it, expired or not, until a Sweep, Delete or re-insert.
type modelEntry struct {
	value               string
	inserted, refreshed time.Time
	expires             time.Time // zero = immortal
	rev                 int64
}

func (m *modelEntry) live(now time.Time) bool {
	return m != nil && (m.expires.IsZero() || m.expires.After(now))
}

// storeModel is a plain map beside the store, with the log of every
// generation's key that ChangesSince answers from.
type storeModel struct {
	entries map[string]*modelEntry
	gen     uint64
	log     []string                  // log[g-1] is the key generation g mutated
	seen    map[string]map[int64]bool // every revision each key has had
}

// modelIndex keys a value by its first byte, so that several keys share
// an index bucket and a value change can move a key between buckets.
func modelIndex(v string) string { return v[:1] }

// TestStoreMatchesModel runs seeded random Put, Upsert, Touch, Delete and
// Sweep calls and clock advances against a reference map, with a journal
// small enough to overflow, and after every step holds the store to it:
// Get, GetEntry, Live, LiveBy and Len agree with the model; Gen rises by
// one per mutation and not otherwise; Rev changes exactly when a value is
// set and never repeats for a key; ChangesSince from a random earlier
// generation returns exactly the keys mutated since, oldest first, or
// reports overflow exactly when the journal no longer reaches back; and a
// Sweep removes exactly the expired keys, each once.
func TestStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runModel(t, seed, 1500) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	// The journal overflows once a reader is more than 12 mutations
	// behind, yet holds a whole Sweep of the 10 keys.
	const journalCap = 12
	rng := rand.New(rand.NewSource(seed))
	clk := newFakeClock()
	s := New[string](clk.Now, WithJournalCap(journalCap))
	s.AddIndex("first", modelIndex)
	m := &storeModel{entries: map[string]*modelEntry{}, seen: map[string]map[int64]bool{}}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"}
	ttl := func() time.Duration {
		if rng.Intn(6) == 0 {
			return 0 // immortal
		}
		return time.Duration(1+rng.Intn(6)) * time.Second
	}
	deadline := func(now time.Time, d time.Duration) time.Time {
		if d <= 0 {
			return time.Time{}
		}
		return now.Add(d)
	}
	mutated := func(key string) {
		m.gen++
		m.log = append(m.log, key)
	}
	// setValue mirrors the store: a new entry when the key holds none or
	// only an expired one, a new revision on every value set.
	setValue := func(key, value string, d time.Duration) {
		now := clk.Now()
		e := m.entries[key]
		if !e.live(now) {
			e = &modelEntry{inserted: now}
			m.entries[key] = e
		}
		e.value, e.refreshed, e.expires = value, now, deadline(now, d)
		e.rev = int64(m.gen) + 1
		mutated(key)
	}

	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(len(keys))]
		value := fmt.Sprintf("%c%d", 'a'+rng.Intn(3), rng.Intn(100))
		now := clk.Now()
		before := s.Gen()
		revs := currentRevs(s, keys)
		var op string
		var setKey string // the key whose value the step set, if any
		switch r := rng.Intn(20); {
		case r < 6:
			op = "put " + key
			d := ttl()
			wantNew := !m.entries[key].live(now)
			if got := s.Put(key, value, d); got != wantNew {
				t.Fatalf("step %d %s: Put reports new %v, model %v", step, op, got, wantNew)
			}
			setValue(key, value, d)
			setKey = key
		case r < 9:
			op = "upsert " + key
			d := ttl()
			old := m.entries[key]
			exists := old.live(now)
			var wantOld string
			if exists {
				wantOld = old.value
			}
			got := s.Upsert(key, d, func(o string, ok bool) string {
				if o != wantOld || ok != exists {
					t.Fatalf("step %d %s: Upsert passes (%q, %v), model (%q, %v)", step, op, o, ok, wantOld, exists)
				}
				return value
			})
			if got != !exists {
				t.Fatalf("step %d %s: Upsert reports new %v, model %v", step, op, got, !exists)
			}
			setValue(key, value, d)
			setKey = key
		case r < 12:
			op = "touch " + key
			d := ttl()
			e := m.entries[key]
			want := e.live(now)
			if got := s.Touch(key, d); got != want {
				t.Fatalf("step %d %s: Touch reports %v, model %v", step, op, got, want)
			}
			if want {
				e.refreshed, e.expires = now, deadline(now, d)
				mutated(key)
			}
		case r < 14:
			op = "delete " + key
			_, want := m.entries[key] // an expired entry not yet swept is still deleted
			if got := s.Delete(key); got != want {
				t.Fatalf("step %d %s: Delete reports %v, model %v", step, op, got, want)
			}
			if want {
				delete(m.entries, key)
				mutated(key)
			}
		case r < 16:
			op = "sweep"
			var expired []string
			for k, e := range m.entries {
				if !e.live(now) {
					expired = append(expired, k)
				}
			}
			if got := s.Sweep(); got != len(expired) {
				t.Fatalf("step %d: Sweep removes %d, model has %d expired", step, got, len(expired))
			}
			// Each expired key is journaled once; the store sweeps in map
			// order, so the model logs the keys in the order it reports.
			swept, ok := s.ChangesSince(before)
			if !ok || len(swept) != len(expired) {
				t.Fatalf("step %d: Sweep journals %v (ok %v), expired %v", step, swept, ok, expired)
			}
			for _, k := range swept {
				if !slices.Contains(expired, k) {
					t.Fatalf("step %d: Sweep journals %v, expired %v", step, swept, expired)
				}
				delete(m.entries, k)
				mutated(k)
			}
		default:
			op = "advance"
			clk.Advance(time.Duration(rng.Intn(2500)) * time.Millisecond)
		}
		if g := s.Gen(); g != m.gen {
			t.Fatalf("step %d %s: Gen %d, model %d (was %d)", step, op, g, m.gen, before)
		}
		checkRevs(t, step, op, s, m, keys, revs, setKey)
		checkReads(t, step, op, s, m, keys, clk.Now())
		checkChanges(t, step, op, s, m, journalCap, rng)
	}
}

// currentRevs returns the live revisions of keys, 0 for none.
func currentRevs(s *Store[string], keys []string) map[string]int64 {
	revs := make(map[string]int64, len(keys))
	for _, k := range keys {
		if e, ok := s.GetEntry(k); ok {
			revs[k] = e.Rev
		}
	}
	return revs
}

// checkRevs holds revisions to their contract: a live key's Rev moved
// exactly when the step set its value, and a key never sees a revision
// it saw before for another value.
func checkRevs(t *testing.T, step int, op string, s *Store[string], m *storeModel, keys []string, before map[string]int64, setKey string) {
	t.Helper()
	for k, rev := range currentRevs(s, keys) {
		switch {
		case k == setKey && rev == before[k]:
			t.Fatalf("step %d %s: %s kept Rev %d over a new value", step, op, k, rev)
		case k != setKey && before[k] != 0 && rev != before[k]:
			t.Fatalf("step %d %s: %s moved Rev %d -> %d without a new value", step, op, k, before[k], rev)
		}
		if k == setKey {
			if m.seen[k] == nil {
				m.seen[k] = map[int64]bool{}
			}
			if m.seen[k][rev] {
				t.Fatalf("step %d %s: %s reuses Rev %d", step, op, k, rev)
			}
			m.seen[k][rev] = true
		}
	}
}

// checkReads holds every read to the model's live entries.
func checkReads(t *testing.T, step int, op string, s *Store[string], m *storeModel, keys []string, now time.Time) {
	t.Helper()
	var live []string
	buckets := map[string][]string{}
	for _, k := range keys {
		e := m.entries[k]
		v, ok := s.Get(k)
		ge, gok := s.GetEntry(k)
		if !e.live(now) {
			if ok || gok {
				t.Fatalf("step %d %s: Get(%s) = %q, %v and GetEntry ok %v; model has no live entry", step, op, k, v, ok, gok)
			}
			continue
		}
		live = append(live, k)
		buckets[modelIndex(e.value)] = append(buckets[modelIndex(e.value)], k)
		if !ok || v != e.value {
			t.Fatalf("step %d %s: Get(%s) = %q, %v; model %q", step, op, k, v, ok, e.value)
		}
		if !gok || ge.Key != k || ge.Value != e.value || ge.Rev != e.rev || !ge.Expires.Equal(e.expires) ||
			!ge.Inserted.Equal(e.inserted) || !ge.Refreshed.Equal(e.refreshed) {
			t.Fatalf("step %d %s: GetEntry(%s) = %+v, %v; model %+v", step, op, k, ge, gok, *e)
		}
	}
	if got := entryKeys(s.Live()); !slices.Equal(got, live) {
		t.Fatalf("step %d %s: Live %v, model %v", step, op, got, live)
	}
	if n := s.Len(); n != len(live) {
		t.Fatalf("step %d %s: Len %d, model %d", step, op, n, len(live))
	}
	for _, b := range []string{"a", "b", "c"} {
		if got := entryKeys(s.LiveBy("first", b)); !slices.Equal(got, buckets[b]) {
			t.Fatalf("step %d %s: LiveBy(%s) %v, model %v", step, op, b, got, buckets[b])
		}
	}
}

// checkChanges asks ChangesSince from a random earlier generation: it
// must report overflow exactly when more than the journal's capacity of
// mutations came since, and otherwise the distinct keys of the log after
// that generation, in order of their first mutation.
func checkChanges(t *testing.T, step int, op string, s *Store[string], m *storeModel, journalCap int, rng *rand.Rand) {
	t.Helper()
	g := uint64(rng.Int63n(int64(m.gen) + 1))
	if back := uint64(rng.Intn(journalCap + 3)); rng.Intn(2) == 0 && back <= m.gen {
		g = m.gen - back // around the journal's reach
	}
	got, ok := s.ChangesSince(g)
	if want := m.gen-g <= uint64(journalCap); ok != want {
		t.Fatalf("step %d %s: ChangesSince(%d) at gen %d reports ok %v, want %v", step, op, g, m.gen, ok, want)
	}
	if !ok {
		return
	}
	var want []string
	for _, k := range m.log[g:] {
		if !slices.Contains(want, k) {
			want = append(want, k)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d %s: ChangesSince(%d) = %v, model %v", step, op, g, got, want)
	}
}

func entryKeys(es []Entry[string]) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.Key)
	}
	slices.Sort(out)
	if len(out) == 0 {
		return nil
	}
	return out
}
