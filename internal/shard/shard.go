package shard

import (
	"fmt"
	"net/http"
	"strings"

	"wsda/internal/xq"
)

// FNV-1a and splitmix64 constants for the partition function.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer: it turns the link hash combined with
// a shard index into an independent, well-distributed weight.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Owner returns which of total shards owns the given content link, by
// rendezvous (highest-random-weight) hashing: the link's FNV-1a hash is
// mixed with each shard index and the highest weight wins. Every router
// and every shard computes the same function, so write routing needs no
// coordination and a link-equality query pins its shard statically.
//
// Rendezvous hashing (not hash-mod-N) is what makes the change-feed
// rebalance exact: a link's owner changes only when a NEW shard wins its
// maximum, so growing N→N+1 relocates only the ~1/(N+1) of the key space
// the joining shard wins and never moves a key between two old shards.
// The joining shard bootstraps exactly its slice from the old owners, the
// old owners prune exactly that slice at cutover, and no other key is
// touched.
func Owner(link string, total int) int {
	if total <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(link); i++ {
		h ^= uint64(link[i])
		h *= fnvPrime64
	}
	best, bestW := 0, mix64(h)
	for i := 1; i < total; i++ {
		if w := mix64(h + uint64(i)*0x9e3779b97f4a7c15); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// Assignment is one shard's slice of the partitioned tuple space: shard
// Index out of Total. The zero value (0/0) means "unsharded": it owns
// everything.
type Assignment struct {
	Index int // this shard's index, 0-based
	Total int // total shards in the partition map; 0 = unsharded
}

// ParseAssignment parses the -shard-of flag form "K/N" (e.g. "2/4") into
// an Assignment, validating 0 <= K < N.
func ParseAssignment(s string) (Assignment, error) {
	var a Assignment
	if _, err := fmt.Sscanf(s, "%d/%d", &a.Index, &a.Total); err != nil {
		return a, fmt.Errorf("shard: bad assignment %q, want K/N: %v", s, err)
	}
	if a.Total < 1 || a.Index < 0 || a.Index >= a.Total {
		return a, fmt.Errorf("shard: assignment %q out of range, want 0 <= K < N", s)
	}
	return a, nil
}

// Sharded reports whether the assignment actually partitions anything
// (the zero value owns the whole space).
func (a Assignment) Sharded() bool { return a.Total > 0 }

// Owns reports whether this assignment's shard owns the link.
func (a Assignment) Owns(link string) bool {
	return !a.Sharded() || Owner(link, a.Total) == a.Index
}

// String renders the K/N flag form.
func (a Assignment) String() string { return fmt.Sprintf("%d/%d", a.Index, a.Total) }

// NotOwnedError is a publish or unpublish addressed to a shard that does
// not own the key — the caller consulted a stale partition map (or none).
// It maps to HTTP 421 Misdirected Request: a definitive rejection, never
// retried against the same shard.
type NotOwnedError struct {
	Link       string     // the misdirected key
	Assignment Assignment // the shard's current slice
	OwnedBy    int        // the shard that does own it
}

// Error formats the misrouting with both sides of the disagreement.
func (e *NotOwnedError) Error() string {
	return fmt.Sprintf("shard %s does not own %q (owner is shard %d)",
		e.Assignment, e.Link, e.OwnedBy)
}

// HTTPStatus implements wsda.StatusCoder: 421 Misdirected Request.
func (e *NotOwnedError) HTTPStatus() int { return http.StatusMisdirectedRequest }

// Route describes where one query must go: a single owning shard (a
// link-equality plan), nowhere (a statically empty plan), or everywhere.
type Route struct {
	Single bool // exactly one shard can hold matches
	Shard  int  // the owning shard when Single
	Never  bool // statically empty: no shard needs contacting
}

// Note renders the route for the X-Wsda-Route header and flight events.
func (rt Route) Note(total int) string {
	switch {
	case rt.Never:
		return "never"
	case rt.Single:
		return fmt.Sprintf("shard=%d/%d", rt.Shard, total)
	default:
		return fmt.Sprintf("scatter=%d", total)
	}
}

// RouteQuery computes the index-aware fan-out hint for a compiled query
// against total shards: a tuple head with a link equality pins the
// owning shard (the partition function is the link hash), a statically
// contradictory head needs no shard at all, and everything else — type/ctx
// equalities included, since every shard indexes those locally — scatters.
// A link-prefix filter cannot pin a shard (hashing destroys prefix
// locality), so it scatters too.
func RouteQuery(q *xq.Query, linkPrefix string, total int) Route {
	h, _ := q.TupleHead() // no tuple head: the zero head scatters
	if h.Never {
		return Route{Never: true}
	}
	for _, eq := range h.Eqs {
		switch {
		case eq.Attr != "link":
		case linkPrefix != "" && !strings.HasPrefix(eq.Value, linkPrefix):
			return Route{Never: true}
		default:
			return Route{Single: true, Shard: Owner(eq.Value, total)}
		}
	}
	return Route{}
}
