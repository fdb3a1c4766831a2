// Package registry implements the hyper registry of thesis Ch. 4: a
// centralized database node for discovery of dynamic distributed content.
// It maintains a soft-state tuple set populated by autonomous remote
// content providers, caches content copies, supports flexible freshness
// driven by provider, registry and client, throttles content pulls, and
// answers both minimal queries (attribute filters) and full XQueries over
// the tuple-set view.
//
// Every XQuery is evaluated by xq, once, with no lock held, over the same
// shared elements: each stored tuple revision is rendered to an immutable
// <tuple> element once. A discovery query (one with an xq.TupleHead) reads
// its members from a tuple source over the store's indexes (plan.go);
// any other query reads a tuple-set snapshot that lists those elements
// under a <tupleset> root, advances from the store's change journal at
// query time and is pinned for the evaluation (view.go). BuildView is the
// from-scratch reference the differential tests compare both against.
//
// The data model lives in internal/tuple (over internal/xmldoc trees),
// queries are evaluated by internal/xq, and lifetimes are enforced by the
// generic internal/softstate store. internal/changefeed replicates the
// registry's journal to read replicas.
package registry
