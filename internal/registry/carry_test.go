package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
)

// TestMemoCarryFollowsJournal drives a registry on an injected clock
// through random refreshes, new publications, unpublications, Touches,
// expiries and bursts that overflow a four-record journal, under no filter
// and a type filter. Before every advance it holds the member map Carry is
// handed (mergeChanges' from) to element identity: a member keeps an old
// position exactly when its element is the one the old set listed there, so a
// refreshed revision is walked again and a Touched one is not. A journaled
// advance over a memo with something to carry carries it, a full re-read
// carries nothing, and Q6–Q10 over the carried memo answer as plain xq
// over BuildView does (xq's TestCarryMatchesColdBuild holds what Carry
// installs to a cold build). After every advance the set's aggregates match
// its members, some of them published without content.
func TestMemoCarryFollowsJournal(t *testing.T) {
	const journalCap = 4
	carried, rereads, kept, touched := 0, 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		r := New(Config{Name: "r", DefaultTTL: time.Minute, MaxTTL: time.Hour, JournalCap: journalCap, Now: clk.Now})
		mutate := func() {
			link := orderLinks[rng.Intn(len(orderLinks))]
			switch op := rng.Intn(10); {
			case op < 5:
				tp := &tuple.Tuple{Link: link, Type: tuple.TypeService, Context: "child", Content: memoContent(rng)}
				if rng.Intn(3) == 0 {
					tp.Type = tuple.TypeNode
				}
				if rng.Intn(5) == 0 {
					tp.Content = nil // a new link stays without content: the set counts it missing
				}
				ttl := []time.Duration{time.Second, 5 * time.Second, 0}[rng.Intn(3)]
				if _, err := r.Publish(tp, ttl); err != nil {
					t.Fatal(err)
				}
			case op < 7:
				if r.store.Touch(link, time.Duration(1+rng.Intn(5))*time.Second) {
					touched++
				}
			default:
				r.Unpublish(link)
			}
		}
		memoRead := map[Filter]bool{} // a query has read the slot's memo
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				mutate()
			case op < 8:
				clk.Advance(time.Duration(1+rng.Intn(6)) * 250 * time.Millisecond)
			default:
				for n := 5 + rng.Intn(4); n > 0; n-- {
					mutate()
				}
			}
			for _, f := range []Filter{{}, {Type: tuple.TypeService}} {
				at := fmt.Sprintf("seed %d step %d filter %+v", seed, step, f)
				old := r.viewFor(f).cur.Load()
				journaled, carries := false, old != nil && memoRead[f]
				if old != nil && !old.current(r.store.Gen(), clk.Now()) {
					var keys []string
					if keys, journaled = r.store.ChangesSince(old.gen); journaled {
						kept += checkMemberMap(t, at, r, old, keys, f, clk.Now())
					} else {
						rereads++
					}
				}
				before := r.Stats().MemoCarries
				checkMemoReads(t, at, r, f, memoQueries)
				checkAggregates(t, at, r.viewFor(f).cur.Load())
				memoRead[f] = true
				n := r.Stats().MemoCarries - before
				if (n > 0) != (journaled && carries) {
					t.Fatalf("%s: %d sets carried; journaled %v, old memo carries %v", at, n, journaled, carries)
				}
				carried += int(n)
			}
		}
	}
	if carried < 1500 || rereads < 30 || kept < 15 || touched < 30 {
		t.Fatalf("%d sets carried, %d full re-reads, %d re-read members kept, %d Touches: the test exercises too little", carried, rereads, kept, touched)
	}
}

// checkAggregates holds the aggregates an advance keeps (the missing count
// adjusted by the members it changes, the earliest deadline, and the oldest
// content timestamp found on demand) to the set's members.
func checkAggregates(t *testing.T, at string, s *tupleSet) {
	t.Helper()
	missing, minExpiry, minTS4 := 0, int64(never), int64(never)
	for i, v := range s.vals {
		missing += uncached(v)
		minExpiry = min(minExpiry, s.expires[i])
		if v.Content != nil {
			minTS4 = min(minTS4, unixOrNever(v.TS4))
		}
	}
	if missing != s.missing || minExpiry != s.minExpiry || minTS4 != s.oldestTS4() {
		t.Fatalf("%s: missing %d, min expiry %d, oldest content %d; the members give %d, %d, %d", at, s.missing, s.minExpiry, s.oldestTS4(), missing, minExpiry, minTS4)
	}
}

// checkMemberMap holds the member map advanceTupleSet hands Carry to element
// identity against old's members, and returns how many members re-read
// from the journal kept their old position.
func checkMemberMap(t *testing.T, at string, r *Registry, old *tupleSet, keys []string, f Filter, now time.Time) (kept int) {
	t.Helper()
	pos := make(map[*xmldoc.Node]int32, len(old.root.Children))
	for i, el := range old.root.Children {
		pos[el] = int32(i)
	}
	reread := make(map[string]bool, len(keys))
	for _, k := range keys {
		reread[k] = true
	}
	kids, _, vals, from, _ := r.mergeChanges(old, keys, f, now.UnixNano())
	if len(from) != len(kids) {
		t.Fatalf("%s: %d members, a map of %d", at, len(kids), len(from))
	}
	for i, kid := range kids {
		want, ok := pos[kid]
		if !ok {
			want = -1
		}
		if from[i] != want {
			t.Fatalf("%s: member %d (%s) mapped to %d, its element is at %d", at, i, vals[i].Link, from[i], want)
		}
		if want >= 0 && reread[vals[i].Link] {
			kept++
		}
	}
	return kept
}
