package wsda

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/xq"
)

// MetricFirstItemSeconds is the edge time-to-first-item histogram, labeled
// by path: "xquery" at a registry, "router" at the scatter-gather router,
// "netquery" at a peer's network-query edge.
const MetricFirstItemSeconds = "wsda_http_first_item_seconds"

// MaxQueryBytes bounds the request body of query endpoints. Oversize
// queries are rejected with 413 rather than silently truncated into a
// different (usually malformed) query.
const MaxQueryBytes = 1 << 20

// Edge is the serving side of the query binding: the one place a POSTed
// query is read and the one place a <results> response is written. The
// registry's /wsda/xquery, the router's /wsda/xquery and /netquery, and a
// peer's /netquery each hold one and keep only what is theirs — whom to
// ask and what accounting to report.
type Edge struct {
	firstItem *telemetry.Histogram
	fr        *telemetry.FlightRecorder
	pages     bool
}

// NewEdge returns the edge of one query endpoint. m, when non-nil, records
// streamed responses' time to first item under the given path label; fr,
// when non-nil, receives the stream events of deliveries bound to a
// transaction (Delivery.SetTx). pages says whether the endpoint's result
// order can carry an offset cursor: a registry's document order can, a
// merge's arrival order cannot, so routers and peers refuse page-size and
// page-cursor instead of ignoring them.
func NewEdge(m *telemetry.Metrics, fr *telemetry.FlightRecorder, path string, pages bool) *Edge {
	e := &Edge{fr: fr, pages: pages}
	if m != nil {
		e.firstItem = m.HistogramVec(MetricFirstItemSeconds,
			"Time from request start to the first streamed result item leaving the HTTP edge.",
			nil, "path").With(path)
	}
	return e
}

// Open reads one query request: the POSTed source (at most MaxQueryBytes),
// the wire-crossing query options (QueryParams' inverse: type, ctx, prefix,
// maxage-ms, pull-missing, tx) and the delivery parameters stream,
// max-results, page-size and page-cursor, which stay inside the returned
// Delivery. A request it cannot accept is answered here — 405, 413 or 400 —
// and the returned Delivery is nil.
func (e *Edge) Open(w http.ResponseWriter, r *http.Request) (query string, opts registry.QueryOptions, d *Delivery) {
	start := time.Now()
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return "", opts, nil
	}
	// Read one byte past the limit so an oversize body is detectable and
	// answered with 413 instead of evaluating a truncated query.
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxQueryBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return "", opts, nil
	}
	if len(body) > MaxQueryBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("query exceeds %d bytes", MaxQueryBytes))
		return "", opts, nil
	}
	d = &Delivery{w: w, ctx: r.Context(), edge: e, start: start}
	if opts, err = d.parse(r.URL.Query()); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return "", opts, nil
	}
	return string(body), opts, d
}

// parse decodes the query options and the delivery parameters. Every error
// is the client's (400).
func (d *Delivery) parse(q url.Values) (opts registry.QueryOptions, err error) {
	opts.Filter = registry.Filter{
		Type:       q.Get("type"),
		Context:    q.Get("ctx"),
		LinkPrefix: q.Get("prefix"),
	}
	if s := q.Get("maxage-ms"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad maxage-ms: %v", err)
		}
		opts.Freshness.MaxAge = time.Duration(ms) * time.Millisecond
	}
	opts.Freshness.PullMissing = q.Get("pull-missing") == "true"
	opts.TxID = q.Get("tx")
	if s := q.Get("max-results"); s != "" {
		if d.maxResults, err = strconv.Atoi(s); err != nil || d.maxResults < 0 {
			return opts, fmt.Errorf("bad max-results")
		}
	}
	// Cursor pagination: page-size bounds this response to one page and
	// page-cursor resumes where a previous page stopped. Pagination implies
	// streamed delivery — the continuation cursor rides the trailing
	// <summary> — and composes with Emit-driven early stop, so the engine
	// never materializes the skipped prefix's renderings nor anything past
	// the page bound plus one probe item.
	size, cursor := q.Get("page-size"), q.Get("page-cursor")
	if (size != "" || cursor != "") && !d.edge.pages {
		return opts, fmt.Errorf("pagination is not supported on a merged result")
	}
	if size != "" {
		if d.pageSize, err = strconv.Atoi(size); err != nil || d.pageSize <= 0 {
			return opts, fmt.Errorf("bad page-size")
		}
	}
	if cursor != "" {
		if d.pageSize == 0 {
			return opts, fmt.Errorf("page-cursor requires page-size")
		}
		if d.offset, err = DecodePageCursor(cursor); err != nil {
			return opts, err
		}
		d.skip = d.offset
	}
	if q.Get("stream") == "true" || d.pageSize > 0 {
		d.sw = NewStreamWriter(d.w)
	}
	return opts, nil
}

// rootRoom is the space a buffered Delivery keeps free in front of the items
// it renders, for Finish to put the <results> start tag in; a network root
// with every attribute is about half of it.
const rootRoom = 256

// Delivery owns one query response from "the engine produced an item" to
// "the response is finished": the page window and its continuation cursor,
// the client-gone check, the first-item clock, streamed (per-item flush)
// or buffered rendering, the max-results bound, the moment headers commit,
// and how a failure is reported. Callers feed it Item by Item and end with
// exactly one of Fail or Finish; which shape goes out is not theirs to
// know. Not safe for concurrent use: the router serializes Item under its
// merge mutex.
type Delivery struct {
	// OnCommit, when set, is called once with the response headers
	// immediately before the first byte of a 200 response is written —
	// ahead of the first streamed item, or in Finish for a buffered or
	// zero-item response — for headers known only once evaluation is under
	// way (X-Wsda-Plan). It does not run when Fail answers a status.
	OnCommit func(h http.Header)

	w     http.ResponseWriter
	ctx   context.Context
	edge  *Edge
	start time.Time

	maxResults, pageSize, offset int // offset: items before this page

	sw         *StreamWriter // streamed delivery; nil renders into buf
	buf        []byte        // buffered delivery: rootRoom bytes, then the items so far as AppendItem renders them
	skip       int           // items of the page offset still to pass over
	count      int           // items delivered
	first      time.Duration // start to the first delivered item
	truncated  bool          // delivery stopped before the result ended
	nextCursor string
}

// MaxResults is the request's max-results bound (0: none), for a caller
// that forwards the query and wants each downstream to stop early too.
func (d *Delivery) MaxResults() int { return d.maxResults }

// SetTx names the transaction this response serves, tying a streamed
// delivery's per-item and trailer events into the flight recording of tx.
func (d *Delivery) SetTx(tx string) {
	if d.sw != nil {
		d.sw.fr, d.sw.tx = d.edge.fr, tx
	}
}

// Item delivers one result item, in the form registry.QueryOptions.Emit
// takes. False means stop producing: the client is gone, a write failed,
// or the page or max-results bound is reached — all of which leave the
// response marked incomplete.
func (d *Delivery) Item(it xq.Item) bool {
	if d.truncated || d.ctx.Err() != nil {
		d.truncated = true
		return false
	}
	if d.skip > 0 {
		d.skip--
		return true
	}
	if d.pageSize > 0 && d.count >= d.pageSize {
		// This item is past the page bound; its existence (not its value)
		// is the proof that a next page exists, so mint the continuation
		// cursor and stop the evaluation.
		d.nextCursor = EncodePageCursor(d.offset + d.pageSize)
		d.truncated = true
		return false
	}
	if d.count == 0 {
		d.first = time.Since(d.start)
		if d.sw != nil {
			d.commit()
			d.edge.firstItem.ObserveDuration(d.first)
		}
	}
	if d.sw == nil {
		// Rendered as it arrives, kept until Finish: a buffered response
		// stays all-or-nothing (Fail discards it) without holding the items.
		if d.buf == nil {
			d.buf = make([]byte, rootRoom, 8*rootRoom) // one typical tuple fits
		}
		d.buf = AppendItem(d.buf, it)
	} else if d.sw.WriteItem(it) != nil {
		d.truncated = true
		return false
	}
	d.count++
	if d.maxResults > 0 && d.count >= d.maxResults {
		d.truncated = true
		return false
	}
	return true
}

func (d *Delivery) commit() {
	if d.OnCommit != nil {
		d.OnCommit(d.w.Header())
	}
}

// Delivered reports, for the caller's own accounting once every Item call
// has returned: the item count, the time from request start to the first
// item (0 if none), and whether delivery stopped before the result ended.
func (d *Delivery) Delivered() (items int, first time.Duration, truncated bool) {
	return d.count, d.first, d.truncated
}

// Fail ends the response with an evaluation failure: the given status and
// the error text if nothing has been written yet (a buffered response
// always can — what it rendered is discarded), a complete="false" trailer
// if a stream is already under way.
func (d *Delivery) Fail(err error, status int) {
	if d.sw != nil && d.sw.started {
		_ = d.sw.Close(StreamSummary{Elapsed: time.Since(d.start)})
		return
	}
	httpError(d.w, status, err)
}

// Finish ends the response with the caller's accounting. Delivery fills in
// what it alone knows: the item count, the continuation cursor, Elapsed
// when the caller left it zero, and complete="false" when it cut the
// result short. A stream gets its <summary> trailer; a buffered response
// is written whole in one Write, its root carrying the same attributes
// for a network query (sum.Network) and the bare count otherwise.
func (d *Delivery) Finish(sum StreamSummary) {
	sum.Complete = sum.Complete && !d.truncated
	sum.NextCursor = d.nextCursor
	if sum.Elapsed == 0 {
		sum.Elapsed = time.Since(d.start)
	}
	if d.sw != nil {
		if !d.sw.started {
			d.commit()
		}
		_ = d.sw.Close(sum)
		return
	}
	d.commit()
	sum.Count = d.count
	// The root start tag is rendered behind the items and then moved into
	// the room kept in front of them, so the document leaves as one Write
	// of the one buffer it was rendered into.
	if d.buf == nil {
		d.buf = make([]byte, rootRoom, 2*rootRoom)
	}
	end := len(d.buf)
	d.buf = append(d.buf, "<results"...)
	if sum.Network {
		d.buf = sum.appendAttrs(d.buf)
	} else {
		d.buf = append(strconv.AppendInt(append(d.buf, ` count="`...), int64(d.count), 10), '"')
	}
	if d.count == 0 {
		d.buf = append(d.buf, "/>"...)
	} else {
		d.buf = append(d.buf, '>')
	}
	root, out := d.buf[end:], []byte(nil)
	if len(root) <= rootRoom {
		out = d.buf[rootRoom-len(root) : end]
		copy(out, root)
	} else { // a long shortfall: the root outgrew its room
		out = append(bytes.Clone(root), d.buf[rootRoom:end]...)
	}
	if d.count > 0 {
		out = append(out, "</results>"...)
	}
	d.w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = d.w.Write(out)
}
