// Package shard partitions the hyper registry's tuple space across N
// registry shards behind a streaming scatter-gather router — the thesis's
// virtual-node containers (Ch. 6.8–6.9) promoted from a simnet experiment
// to a real deployment shape.
//
// The pieces:
//
//   - A deterministic partition function: Owner assigns a tuple's content
//     link to one of N shards by rendezvous (highest-random-weight)
//     hashing, and Assignment ("K/N") is one shard's slice of that space.
//     Partitioning is by link because the link is the tuple's primary key:
//     writes route with no coordination, and a link-equality discovery
//     query pins a single shard. Rendezvous hashing keeps rebalancing
//     minimal — growing N→N+1 moves only the keys the new shard wins,
//     never a key between two old shards.
//   - A guard for shard members: Member wraps a registry so publishes for
//     keys outside the shard's range are rejected with 421 Misdirected
//     Request (definitive, non-retryable) instead of silently accepted
//     into the wrong partition.
//   - A router that owns no tuples: Router accepts the full WSDA HTTP
//     surface, routes writes to the owning shard, and scatter-gathers
//     queries across all shards with streamed merge — the first item is
//     flushed as soon as a shard sends it, the rest when the merge would
//     wait: before a backend reads its shard again, so what one read brought
//     leaves in one flush (items of a backend that cannot tell are flushed
//     one by one), the trailing <summary> aggregates tx/count/complete/nodes
//     across shards, and max-results plus client disconnect cancel the
//     fan-out network-wide.
//   - Rebalancing over the change feed: a shard joining at N→N+1
//     bootstraps its key range via /wsda/snapshot and tails /wsda/feed
//     from each old owner (changefeed.Config.Filter keeps the ranges
//     disjoint), and the router's cutover barrier swaps the partition map
//     with no query in flight, so no query observes a tuple twice or not
//     at all.
//
// Planner pushdown (X-Wsda-Plan), flight-recorder events and per-shard
// metrics survive the hop: the router forwards its minted transaction ID
// to every shard, reflects the first shard plan it sees, and adds an
// X-Wsda-Route header describing the routing decision.
//
// The router speaks the binding through wsda's two single sites: its query
// responses are a wsda.Delivery's (the router only routes, merges and
// accounts), and every call HTTPBackend makes to a shard goes out through
// wsda.Client.Do with the caller's context.
package shard
