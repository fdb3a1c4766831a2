// Replication hooks: the registry side of the change-feed subsystem
// (internal/changefeed). The soft-state store's generation counter and
// bounded change journal already advance the tuple-set snapshots;
// these methods expose the same machinery as a consumable change stream —
// deltas by cursor, an atomic snapshot+generation pair for bootstrap, and
// an apply path that preserves remaining lifetimes so the paper's
// soft-state argument survives replication: a stale replica is safe
// because its copies expire unless the primary keeps refreshing them.

package registry

import (
	"wsda/internal/tuple"
)

// Change is one replicated mutation. A nil Tuple means the key is gone on
// the source (unpublished or expired); otherwise Tuple is the key's current
// state with TS3 carrying the absolute soft-state deadline, from which the
// applier derives the remaining lifetime under its own clock. From
// ChangesSince, Tuple is a copy of the stored tuple whose Content and
// Metadata are the store's own: read them, never write them.
type Change struct {
	Key   string       // the tuple key (its link)
	Tuple *tuple.Tuple // current state; nil = deleted/expired
}

// Gen returns the registry's store generation — the replication cursor
// space. Feed responses report it so replicas can measure lag.
func (r *Registry) Gen() uint64 { return r.store.Gen() }

// ChangesSince returns the mutations a reader at cursor gen has missed,
// oldest first, and the generation `to` the reader may advance its cursor
// to after applying them. ok is false when gen has fallen off the bounded
// change journal: the reader's only correct move is a snapshot
// re-bootstrap.
//
// The store generation is read before the journal, so `to` never exceeds
// the journal read's coverage; a mutation racing between the two reads is
// simply re-delivered on the next call, which is harmless because changes
// carry full per-key state and applying them is idempotent.
func (r *Registry) ChangesSince(gen uint64) (to uint64, changes []Change, ok bool) {
	to = r.store.Gen()
	keys, ok := r.store.ChangesSince(gen)
	if !ok {
		return to, nil, false
	}
	changes = make([]Change, 0, len(keys))
	for _, k := range keys {
		c := Change{Key: k}
		if e, live := r.store.GetEntry(k); live {
			t := *e.Value.Tuple // a copy for the TS3 patch; the content is shared
			c.Tuple = &t
			// Ship the deadline the tuple itself advertises (TS3): it is what
			// both sides serialize, so replication is byte-faithful. The
			// entry's enforced Expires can trail it by a clock tick (Publish
			// and the store read the clock separately); fall back to it only
			// when the value predates soft-state stamping.
			if c.Tuple.TS3.IsZero() {
				c.Tuple.TS3 = e.Expires
			}
		}
		changes = append(changes, c)
	}
	return to, changes, true
}

// ApplyReplicated folds one change-feed mutation into the registry,
// bypassing TTL clamping and timestamp rewriting: the tuple is stored
// verbatim with the remainder of the source's deadline (TS3) as its local
// lifetime, so expiry semantics survive replication. A change that expired
// in transit acts as a deletion. It reports whether the local tuple set
// changed.
func (r *Registry) ApplyReplicated(c Change) bool {
	if c.Tuple == nil {
		return r.store.Delete(c.Key)
	}
	// A zero deadline on the source means immortal here too.
	if !c.Tuple.TS3.IsZero() && !c.Tuple.TS3.After(r.cfg.Now()) {
		return r.store.Delete(c.Key) // expired in transit
	}
	r.store.PutUntil(c.Key, &stored{Tuple: c.Tuple.Clone()}, c.Tuple.TS3)
	return true
}

// PruneLinks deletes every live tuple whose link the keep predicate
// rejects, in one store pass, and returns how many were dropped. It backs
// the shard-rebalance cutover: once a partition map changes, the old owner
// prunes the key range that moved away, and the prunes ride the change
// feed as ordinary deletions so any tailer of this node stays consistent.
func (r *Registry) PruneLinks(keep func(link string) bool) int {
	return r.store.DeleteIf(func(key string, _ *stored) bool { return !keep(key) })
}

// LiveLinks returns the links of all live tuples, in unspecified order —
// what a re-bootstrapping replica diffs against a fresh snapshot to drop
// tuples deleted on the primary while the replica was disconnected.
func (r *Registry) LiveLinks() []string {
	entries := r.store.Live()
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Key)
	}
	return out
}
