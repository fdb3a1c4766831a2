// Package registry implements the hyper registry of thesis Ch. 4: a
// centralized database node for discovery of dynamic distributed content.
// It maintains a soft-state tuple set populated by autonomous remote
// content providers, caches content copies, supports flexible freshness
// driven by provider, registry and client, throttles content pulls, and
// answers both minimal queries (attribute filters) and full XQueries over
// the tuple-set view.
//
// Every XQuery takes one path: each stored tuple revision is rendered to an
// immutable <tuple> element once, a tuple-set snapshot lists those shared
// elements under a <tupleset> root and advances from the store's change
// journal at query time, and a query pins the current snapshot and
// evaluates on it with no lock held — through the pushdown planner when
// its shape is a discovery query, through the interpreter otherwise (see
// view.go and plan.go). BuildView is the from-scratch reference the
// differential tests compare against.
//
// The data model lives in internal/tuple (over internal/xmldoc trees),
// queries are evaluated by internal/xq, and lifetimes are enforced by the
// generic internal/softstate store. internal/changefeed replicates the
// registry's journal to read replicas.
package registry
