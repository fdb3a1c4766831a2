package softstate

import (
	"sync"
	"time"

	"wsda/internal/telemetry"
)

// Entry is one soft-state entry.
type Entry[V any] struct {
	Key       string    // lookup key
	Value     V         // the cached state
	Inserted  time.Time // first Put
	Refreshed time.Time // most recent Put
	Expires   time.Time // deadline; zero = immortal

	// Rev is the value revision, derived from the store generation so it is
	// monotonic across incarnations of a key: deleting (or passively
	// expiring) a key and re-inserting it can never reuse a revision, which
	// keeps revision comparison a sound change detector for external caches.
	Rev int64
}

// Expired reports whether the entry is past its deadline.
func (e *Entry[V]) Expired(now time.Time) bool {
	return !e.Expires.IsZero() && !e.Expires.After(now)
}

// DefaultJournalCap bounds the change journal unless WithJournalCap
// overrides it. The journal covers the most recent mutations; a reader
// further behind must resynchronize with a full scan (ChangesSince reports
// this by returning ok == false).
const DefaultJournalCap = 4096

// Option configures a Store at construction time.
type Option func(*options)

type options struct {
	journalCap int
}

// WithJournalCap sets the change-journal capacity: how many of the most
// recent mutations ChangesSince can replay before forcing readers (cached
// views, replication feeds) into a full resynchronization. Larger journals
// let replicas survive longer disconnections at the cost of memory;
// non-positive values keep DefaultJournalCap.
func WithJournalCap(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.journalCap = n
		}
	}
}

// journalRec is one journaled mutation: the generation it produced and the
// key it touched.
type journalRec struct {
	gen uint64
	key string
}

// index is one secondary index: value-derived key → set of live entries.
type index[V any] struct {
	keyOf   func(V) string
	buckets map[string]map[string]*Entry[V]
}

// Store is a concurrency-safe soft-state table. The zero value is not
// usable; call New.
type Store[V any] struct {
	mu      sync.RWMutex
	entries map[string]*Entry[V]
	now     func() time.Time

	// gen is the store generation: a monotonic counter bumped by every
	// mutation (insert, refresh, touch, delete, sweep removal), so callers
	// can cheaply detect "anything changed since generation G?". The
	// journal records the key touched by each of the last journalCap
	// generations for incremental change propagation.
	gen        uint64
	journalCap int
	jbuf       []journalRec
	jstart     int // ring start (index of the oldest record)
	jlen       int

	// indexes are secondary indexes over live entries, maintained on every
	// mutation so lookups by a value attribute avoid full scans.
	indexes map[string]*index[V]

	// statistics
	puts, refreshes, expirations int64

	// sweepSeconds, when set, observes the latency of every Sweep — the
	// soft-state churn series of the thesis experiments (Ch. 4.6/E4).
	sweepSeconds *telemetry.Histogram

	// journalTruncations, when set, counts ChangesSince calls that could
	// not be served because the requested generation had fallen off the
	// bounded journal — each one is a reader (tuple-set snapshot, replica) forced
	// into a full resynchronization.
	journalTruncations *telemetry.Counter
}

// New returns an empty store using the given clock (nil means time.Now).
func New[V any](now func() time.Time, opts ...Option) *Store[V] {
	if now == nil {
		now = time.Now
	}
	o := options{journalCap: DefaultJournalCap}
	for _, opt := range opts {
		opt(&o)
	}
	return &Store[V]{entries: make(map[string]*Entry[V]), now: now, journalCap: o.journalCap}
}

// bump advances the store generation and journals the mutated key.
// Callers must hold mu.
func (s *Store[V]) bump(key string) {
	s.gen++
	rec := journalRec{gen: s.gen, key: key}
	if len(s.jbuf) < s.journalCap {
		s.jbuf = append(s.jbuf, rec)
		s.jlen++
		return
	}
	// Ring is full: overwrite the oldest record.
	s.jbuf[s.jstart] = rec
	s.jstart = (s.jstart + 1) % s.journalCap
}

// idxAdd registers e under every secondary index. Callers must hold mu.
func (s *Store[V]) idxAdd(e *Entry[V]) {
	for _, ix := range s.indexes {
		k := ix.keyOf(e.Value)
		b := ix.buckets[k]
		if b == nil {
			b = make(map[string]*Entry[V])
			ix.buckets[k] = b
		}
		b[e.Key] = e
	}
}

// idxRemove unregisters e from every secondary index. It must run while
// e.Value still holds the indexed value. Callers must hold mu.
func (s *Store[V]) idxRemove(e *Entry[V]) {
	for _, ix := range s.indexes {
		k := ix.keyOf(e.Value)
		if b := ix.buckets[k]; b != nil {
			delete(b, e.Key)
			if len(b) == 0 {
				delete(ix.buckets, k)
			}
		}
	}
}

// setValue replaces e's value, bumping its revision and migrating index
// membership. Callers must hold mu; hadValue says whether e currently holds
// an indexed value (false for a freshly created entry).
func (s *Store[V]) setValue(e *Entry[V], value V, hadValue bool) {
	if hadValue {
		s.idxRemove(e)
	}
	e.Value = value
	// Every setValue is followed by exactly one bump, so gen+1 is the
	// generation this mutation will carry — unique per value change and
	// monotonic even across delete/re-insert of the same key.
	e.Rev = int64(s.gen) + 1
	s.idxAdd(e)
}

// Put inserts or refreshes an entry with the given time-to-live. A
// non-positive ttl makes the entry immortal (strong state). It reports
// whether the entry was newly created (false means this was a refresh).
func (s *Store[V]) Put(key string, value V, ttl time.Duration) bool {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	isNew := !ok || e.Expired(now)
	if isNew {
		if ok {
			s.idxRemove(e) // replacing a dead entry: drop its index slots
		}
		e = &Entry[V]{Key: key, Inserted: now}
		s.entries[key] = e
		s.puts++
	} else {
		s.refreshes++
	}
	s.setValue(e, value, !isNew)
	e.Refreshed = now
	if ttl > 0 {
		e.Expires = now.Add(ttl)
	} else {
		e.Expires = time.Time{}
	}
	s.bump(key)
	return isNew
}

// PutUntil is Put with an absolute deadline instead of a relative ttl — the
// replication apply path, where the source's enforced expiry must survive
// verbatim rather than be re-derived from a second clock read. A zero
// expires makes the entry immortal; an expires at or before now is the
// caller's responsibility to treat as a deletion.
func (s *Store[V]) PutUntil(key string, value V, expires time.Time) bool {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	isNew := !ok || e.Expired(now)
	if isNew {
		if ok {
			s.idxRemove(e) // replacing a dead entry: drop its index slots
		}
		e = &Entry[V]{Key: key, Inserted: now}
		s.entries[key] = e
		s.puts++
	} else {
		s.refreshes++
	}
	s.setValue(e, value, !isNew)
	e.Refreshed = now
	e.Expires = expires
	s.bump(key)
	return isNew
}

// Upsert atomically inserts or merges an entry. fn receives the old value
// (zero value if absent) and whether a live entry existed, and returns the
// new value. It reports whether the entry was newly created.
func (s *Store[V]) Upsert(key string, ttl time.Duration, fn func(old V, exists bool) V) bool {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok && e.Expired(now) {
		s.idxRemove(e)
		delete(s.entries, key)
		ok = false
	}
	var old V
	if ok {
		old = e.Value
	} else {
		e = &Entry[V]{Key: key, Inserted: now}
		s.entries[key] = e
	}
	s.setValue(e, fn(old, ok), ok)
	e.Refreshed = now
	if ttl > 0 {
		e.Expires = now.Add(ttl)
	} else {
		e.Expires = time.Time{}
	}
	if ok {
		s.refreshes++
	} else {
		s.puts++
	}
	s.bump(key)
	return !ok
}

// Touch extends the deadline of an existing live entry without changing its
// value, reporting whether the entry was found.
func (s *Store[V]) Touch(key string, ttl time.Duration) bool {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.Expired(now) {
		return false
	}
	e.Refreshed = now
	if ttl > 0 {
		e.Expires = now.Add(ttl)
	} else {
		e.Expires = time.Time{}
	}
	s.refreshes++
	s.bump(key) // deadline moved; the value revision is unchanged
	return true
}

// PutIfAbsent inserts the entry only if no live entry exists under key. It
// returns the value now stored (the existing one on conflict) and whether
// the insert happened. Unlike Put, a conflict leaves the existing entry
// completely untouched — no refresh, no deadline extension.
func (s *Store[V]) PutIfAbsent(key string, value V, ttl time.Duration) (V, bool) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok && !e.Expired(now) {
		return e.Value, false
	}
	if ok {
		s.idxRemove(e) // replacing a dead entry
	}
	e = &Entry[V]{Key: key, Inserted: now, Refreshed: now}
	if ttl > 0 {
		e.Expires = now.Add(ttl)
	}
	s.entries[key] = e
	s.setValue(e, value, false)
	s.puts++
	s.bump(key)
	return value, true
}

// Get returns the live value for key.
func (s *Store[V]) Get(key string) (V, bool) {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[key]
	if !ok || e.Expired(now) {
		var zero V
		return zero, false
	}
	return e.Value, true
}

// GetEntry returns a copy of the live entry for key (value plus soft-state
// timestamps). The copy is a snapshot: later refreshes do not alter it.
func (s *Store[V]) GetEntry(key string) (Entry[V], bool) {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[key]
	if !ok || e.Expired(now) {
		return Entry[V]{}, false
	}
	return *e, true
}

// Delete removes an entry explicitly (the "unpublish" operation).
func (s *Store[V]) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		s.idxRemove(e)
		delete(s.entries, key)
		s.bump(key)
	}
	return ok
}

// DeleteIf removes every entry whose (key, value) the predicate selects,
// under a single write lock, and returns how many were removed. Each
// removal is journaled like an individual Delete, so change-feed tailers
// observe the prunes as ordinary deletions. It is the bulk primitive
// behind shard rebalancing: after a partition cutover the old owner drops
// every tuple it no longer owns in one pass instead of one lease
// acquisition per key.
func (s *Store[V]) DeleteIf(pred func(key string, value V) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, e := range s.entries {
		if pred(k, e.Value) {
			s.idxRemove(e)
			delete(s.entries, k)
			s.bump(k)
			n++
		}
	}
	return n
}

// Live returns snapshot copies of all non-expired entries, in unspecified
// order.
func (s *Store[V]) Live() []Entry[V] {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry[V], 0, len(s.entries))
	for _, e := range s.entries {
		if !e.Expired(now) {
			out = append(out, *e)
		}
	}
	return out
}

// LiveAndGen returns Live's snapshot together with the store generation it
// corresponds to, atomically — the pair a replication bootstrap needs so
// that a cursor derived from the generation misses no later mutation.
func (s *Store[V]) LiveAndGen() ([]Entry[V], uint64) {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry[V], 0, len(s.entries))
	for _, e := range s.entries {
		if !e.Expired(now) {
			out = append(out, *e)
		}
	}
	return out, s.gen
}

// Len returns the number of live entries.
func (s *Store[V]) Len() int {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.entries {
		if !e.Expired(now) {
			n++
		}
	}
	return n
}

// InstrumentSweeps observes every Sweep's latency into h (nil disables).
// Call it during setup, before the store is shared across goroutines.
func (s *Store[V]) InstrumentSweeps(h *telemetry.Histogram) { s.sweepSeconds = h }

// InstrumentJournalTruncations counts every ChangesSince request that fell
// off the bounded journal into c (nil disables). Call it during setup,
// before the store is shared across goroutines.
func (s *Store[V]) InstrumentJournalTruncations(c *telemetry.Counter) { s.journalTruncations = c }

// Sweep removes expired entries and returns how many were collected.
func (s *Store[V]) Sweep() int {
	if s.sweepSeconds != nil {
		defer s.sweepSeconds.ObserveSince(time.Now())
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, e := range s.entries {
		if e.Expired(now) {
			s.idxRemove(e)
			delete(s.entries, k)
			s.bump(k)
			n++
		}
	}
	s.expirations += int64(n)
	return n
}

// Gen returns the store generation: a monotonic counter bumped by every
// mutation. Two equal Gen readings bracket a window in which no entry was
// inserted, refreshed, touched or removed (passive expiry excepted — an
// entry silently crossing its deadline does not bump the generation, so
// deadline-sensitive callers must track the earliest deadline themselves).
func (s *Store[V]) Gen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// ChangesSince returns the deduplicated keys mutated after generation gen,
// oldest first. ok is false when gen is too far behind the bounded journal,
// in which case the caller must resynchronize with a full scan.
func (s *Store[V]) ChangesSince(gen uint64) (keys []string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if gen >= s.gen {
		return nil, true
	}
	missing := s.gen - gen
	if missing > uint64(s.jlen) {
		s.journalTruncations.Inc()
		return nil, false
	}
	seen := make(map[string]struct{}, missing)
	keys = make([]string, 0, missing)
	start := s.jlen - int(missing)
	for i := start; i < s.jlen; i++ {
		rec := s.jbuf[(s.jstart+i)%len(s.jbuf)]
		if _, dup := seen[rec.key]; dup {
			continue
		}
		seen[rec.key] = struct{}{}
		keys = append(keys, rec.key)
	}
	return keys, true
}

// AddIndex registers a named secondary index keyed by keyOf over entry
// values. Existing entries are indexed immediately; later mutations keep
// the index current. Registering an existing name replaces it.
func (s *Store[V]) AddIndex(name string, keyOf func(V) string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.indexes == nil {
		s.indexes = make(map[string]*index[V])
	}
	ix := &index[V]{keyOf: keyOf, buckets: make(map[string]map[string]*Entry[V])}
	s.indexes[name] = ix
	for _, e := range s.entries {
		k := keyOf(e.Value)
		b := ix.buckets[k]
		if b == nil {
			b = make(map[string]*Entry[V])
			ix.buckets[k] = b
		}
		b[e.Key] = e
	}
}

// LiveBy returns snapshot copies of the non-expired entries whose indexed
// key equals key, in unspecified order. It panics on an unregistered index
// name (a programming error, not a data condition).
func (s *Store[V]) LiveBy(name, key string) []Entry[V] {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.indexes[name]
	if ix == nil {
		panic("softstate: LiveBy on unregistered index " + name)
	}
	b := ix.buckets[key]
	if len(b) == 0 {
		return nil
	}
	out := make([]Entry[V], 0, len(b))
	for _, e := range b {
		if !e.Expired(now) {
			out = append(out, *e)
		}
	}
	return out
}

// Stats reports cumulative counters: first-time puts, refreshes and swept
// expirations.
func (s *Store[V]) Stats() (puts, refreshes, expirations int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.puts, s.refreshes, s.expirations
}

// Sweeper runs Sweep every interval until stop is closed. It is the
// background counterpart to explicit sweeping and is optional: Get/Live
// already never return expired entries.
func (s *Store[V]) Sweeper(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Sweep()
		case <-stop:
			return
		}
	}
}
