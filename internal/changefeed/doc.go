// Package changefeed turns the registry's soft-state change journal into a
// network-consumable replication stream and runs read-only registry
// replicas off it.
//
// The thesis's soft-state argument (Ch. 2.6, 4.6) is what makes this safe:
// replicated tuples carry the remainder of their original lifetime, so a
// replica that falls behind — or keeps serving after its primary dies —
// degrades gracefully into staleness and then silence as its copies
// expire, instead of serving confidently wrong state forever. Related
// discovery systems (MIND, the WebContent XML Store; see PAPERS.md) make
// exactly this replication step the availability backbone of discovery.
//
// The protocol has two endpoints, mounted by Server:
//
//	GET /wsda/snapshot
//	    Full bootstrap: the registry's <snapshot> document stamped with
//	    the store generation (gen attribute) it atomically corresponds
//	    to, plus the X-Wsda-Epoch response header identifying the server
//	    incarnation.
//
//	GET /wsda/feed?since=CURSOR&wait-ms=N
//	    Deltas after generation CURSOR as a <changes from To> document of
//	    <change> elements (full tuple state, or deleted="true"). With
//	    wait-ms the request long-polls until a change arrives or the wait
//	    elapses. truncated="true" tells the client its cursor fell off
//	    the bounded journal and it must re-bootstrap from snapshot.
//
// The client side is Tailer: cursor-resumed feed requests, exponential
// backoff with jitter across outages, and detection of the three ways a
// feed stops being followable (epoch change across a primary restart,
// journal truncation, a cursor from the future). What a page means is its
// Consumer's business. Replica is the consumer with a full-state
// obligation — snapshot bootstrap, automatic re-bootstrap after a gap —
// and applies deltas into an ordinary registry.Registry, so the
// incremental view machinery answers queries on the replica exactly as on
// the primary; the client SDK's cache (internal/sdk) is the consumer
// without one.
package changefeed
