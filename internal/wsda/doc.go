// Package wsda implements the Web Service Discovery Architecture of thesis
// Ch. 2 and Ch. 5: SWSDL service descriptions, service links, and the small
// set of orthogonal discovery primitives — Presenter (service description
// retrieval), Consumer (data publication), MinQuery (minimal query support)
// and XQuery (powerful query support) — together with their HTTP network
// protocol bindings.
//
// internal/registry supplies the local implementation of the query
// primitives; Client/Handler bind them to HTTP for remote nodes. Each half
// of the binding has one site: Client.Do builds every outgoing request
// (URL, token, context, non-200 to *HTTPError), and Edge reads every
// POSTed query and writes every <results> response through a Delivery —
// for the registry's handler here, the shard router and a peer's
// /netquery alike.
//
// # Result items on the wire
//
// A result is a <results> document: one <node> or <atomic> child per item
// and, when streamed, a trailing <summary>. AppendItem alone renders an
// item to bytes, so an item has the same bytes on every path. Reading goes
// through an xmldoc.Framer: DecodeRawStream yields each item's bytes — what
// the router forwards, unparsed — and DecodeStream parses each into its
// value, where an atomic's lexical form is checked. Both accept what
// xmldoc.Parse accepts and, inside <results>, only those three elements.
package wsda
