package wsda

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// StreamSummary is the trailing accounting of a streamed result set: the
// attributes that used to ride on the <results> root are unknown when a
// streamed header is written, so they travel in a final <summary> element
// instead. The decoder also fills it from root attributes when the peer
// answered with a buffered <results> document, so callers handle both
// shapes uniformly.
type StreamSummary struct {
	TxID           string        // network query transaction ID ("" for local queries)
	Count          int           // items delivered
	Complete       bool          // nothing known to be missing (and not truncated)
	Aborted        bool          // the abort deadline cut collection short
	NodesContacted int           // nodes the query reached or tried to reach
	NodesResponded int           // nodes whose final answer arrived
	Elapsed        time.Duration // server-side elapsed time
	Network        bool          // network accounting attrs present/meaningful
	// Shortfall names what a partial result is missing (e.g. the shards or
	// peers that never answered), so an incomplete delivery is actionable
	// rather than a bare complete="false". Empty when nothing is missing.
	Shortfall string
	// Plan is the server's X-Wsda-Plan header, filled client-side by
	// postStream ("" when the server sent none). It never crosses the
	// wire inside the <summary> trailer.
	Plan string
	// NextCursor is the opaque continuation cursor of a paginated response
	// (next-cursor attribute): pass it back as page-cursor to resume where
	// this page stopped. Empty on the final page and on unpaginated
	// responses. A paginated page reports Complete=false — the result set
	// continues — until the final page.
	NextCursor string
}

// RawItem is one result item in wire form: the bytes of a complete <node>
// or <atomic> element as AppendItem renders one, and written as they are.
// The router's shard backend hands these to the merge instead of decoded
// trees, so an item crosses the router as the bytes the shard wrote. One
// handed to a callback aliases the decoder's buffer and is valid until the
// callback returns: write it out before that, or keep a copy.
type RawItem []byte

// Item parses the wire element into the item it stands for.
func (r RawItem) Item() (xq.Item, error) {
	doc, err := xmldoc.ParseBytes(r)
	if err != nil {
		return nil, fmt.Errorf("wsda: decode results: %w", err)
	}
	if doc.DocumentElement() == nil {
		return nil, fmt.Errorf("wsda: decode results: item %q holds no element", r)
	}
	return itemFromElement(doc.DocumentElement())
}

// AppendItem appends the wire element of one result item to dst: a node
// as <node> around its serialization (an attribute node in the attr-name
// form, any other non-element as its text), an atomic as <atomic
// type="...">, a RawItem as it is. Items are rendered nowhere else, which
// makes streamed, buffered and routed item bytes identical. It only reads
// the item, so shared immutable result elements are safe to pass.
func AppendItem(dst []byte, it xq.Item) []byte {
	switch v := it.(type) {
	case RawItem:
		return append(dst, v...)
	case *xmldoc.Node:
		if v.Kind == xmldoc.DocumentNode {
			if v = v.DocumentElement(); v == nil {
				return append(dst, "<node/>"...)
			}
		}
		switch v.Kind {
		case xmldoc.ElementNode:
			dst = v.AppendTo(append(dst, "<node>"...))
		case xmldoc.AttributeNode:
			dst = xmldoc.EscapeAttr(append(dst, `<node attr-name="`...), v.Name)
			dst = xmldoc.EscapeText(append(dst, `">`...), v.Data)
		default:
			dst = xmldoc.EscapeText(append(dst, "<node>"...), v.StringValue())
		}
		return append(dst, "</node>"...)
	default:
		dst = append(append(dst, `<atomic type="`...), atomicType(it)...)
		dst = xmldoc.EscapeText(append(dst, `">`...), xq.StringValue(it))
		return append(dst, "</atomic>"...)
	}
}

// StreamWriter emits a chunked <results> stream over HTTP: one <node> or
// <atomic> element per item, rendered by AppendItem, terminated by a
// <summary> element carrying the accounting. It writes; when an item's
// bytes leave is Delivery's choice: a walked item leaves when found, items
// the producer holds together leave together. The trailer is always
// flushed. The zero value is not usable; call NewStreamWriter.
type StreamWriter struct {
	w       http.ResponseWriter
	fl      http.Flusher
	buf     []byte // the item being written, reused
	count   int
	started bool
	err     error

	// Flight correlation (Delivery.SetTx): records one stream-item event
	// per written item and a stream-close on the trailer, tying the HTTP
	// edge into /debug/query/<tx>. A nil recorder or empty tx records nothing.
	fr *telemetry.FlightRecorder
	tx string
}

// NewStreamWriter prepares a streamed <results> response on w. Nothing is
// written until the first item (or Close), so callers may still answer an
// error status for failures detected before evaluation starts.
func NewStreamWriter(w http.ResponseWriter) *StreamWriter {
	fl, _ := w.(http.Flusher)
	return &StreamWriter{w: w, fl: fl}
}

func (sw *StreamWriter) start() {
	if sw.started {
		return
	}
	sw.started = true
	sw.w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, sw.err = io.WriteString(sw.w, `<results streamed="true">`)
}

// flush sends what has been written so far to the client, when the
// ResponseWriter can flush.
func (sw *StreamWriter) flush() {
	if sw.fl != nil {
		sw.fl.Flush()
	}
}

// WriteItem appends one result item to the stream; it does not flush. The
// first call commits the response header.
func (sw *StreamWriter) WriteItem(it xq.Item) error {
	if sw.start(); sw.err != nil { // an earlier failure, or the header's
		return sw.err
	}
	sw.buf = AppendItem(sw.buf[:0], it)
	if _, sw.err = sw.w.Write(sw.buf); sw.err != nil {
		return sw.err
	}
	sw.count++
	sw.fr.Record(sw.tx, telemetry.FlightStreamItem, "", "", int64(sw.count), "")
	return nil
}

// Close terminates the stream with the <summary> trailer and the closing
// </results> tag, and flushes. sum.Count is overridden with the writer's
// own item count.
func (sw *StreamWriter) Close(sum StreamSummary) error {
	if sw.start(); sw.err != nil {
		return sw.err
	}
	sum.Count = sw.count
	sw.buf = append(sum.appendAttrs(append(sw.buf[:0], "<summary"...)), "/></results>"...)
	if _, sw.err = sw.w.Write(sw.buf); sw.err != nil {
		return sw.err
	}
	note := "complete"
	if !sum.Complete {
		note = "incomplete"
	}
	sw.fr.Record(sw.tx, telemetry.FlightStreamClose, "", "", int64(sum.Count), note)
	sw.flush()
	return nil
}

// appendAttrs appends the summary as attributes, the way both a <summary>
// trailer and the root of a buffered response carry it.
func (sum *StreamSummary) appendAttrs(dst []byte) []byte {
	attr := func(name, val string) {
		dst = xmldoc.EscapeAttr(append(append(append(dst, ' '), name...), `="`...), val)
		dst = append(dst, '"')
	}
	if sum.TxID != "" {
		attr("tx", sum.TxID)
	}
	attr("count", strconv.Itoa(sum.Count))
	attr("complete", strconv.FormatBool(sum.Complete))
	attr("elapsed-ms", strconv.FormatInt(sum.Elapsed.Milliseconds(), 10))
	if sum.Network {
		attr("aborted", strconv.FormatBool(sum.Aborted))
		attr("nodes-contacted", strconv.Itoa(sum.NodesContacted))
		attr("nodes-responded", strconv.Itoa(sum.NodesResponded))
	}
	if sum.Shortfall != "" {
		attr("shortfall", sum.Shortfall)
	}
	if sum.NextCursor != "" {
		attr("next-cursor", sum.NextCursor)
	}
	return dst
}

// DecodeStream incrementally parses a <results> document from r, invoking
// onItem for every result item the moment its element is fully read — no
// buffering of the document, so items surface while the producer is still
// streaming. onItem returning false stops the parse early. The returned
// summary comes from the trailing <summary> element (streamed responses) or
// from the root's own attributes (buffered responses); on early stop it
// reflects what had been seen so far. Node items are the caller's own:
// each is built in the pass that frames it (xmldoc.Framer.NextTree), by a
// pooled Framer that keeps nothing of it.
func DecodeStream(r io.Reader, onItem func(it xq.Item) bool) (*StreamSummary, error) {
	f := framers.Get().(*xmldoc.Framer)
	f.Reset(r)
	defer func() {
		f.Reset(nil)
		framers.Put(f)
	}()
	return decode(f, true, func(_ RawItem, el *xmldoc.Node) (bool, error) {
		it, err := itemFromElement(el)
		return err == nil && (onItem == nil || onItem(it)), err
	})
}

// framers pools DecodeStream's Framers, so that a one-item answer (a
// point lookup) costs no buffer, scanner or builder of its own.
var framers = sync.Pool{New: func() any { return new(xmldoc.Framer) }}

// DecodeRawStream is DecodeStream without the trees: an xmldoc.Framer
// finds each child of <results> and onItem receives the <node> and
// <atomic> elements as RawItems (see there for how long one stays valid);
// only the root's attributes and <summary> are parsed. The framer checks
// what it passes over as Parse would, so a truncated or malformed stream,
// or one holding any other element, ends with an error — after the items
// before the fault were delivered, and never reporting Complete.
func DecodeRawStream(r io.Reader, onItem func(raw RawItem) bool) (*StreamSummary, error) {
	return decode(xmldoc.NewFramer(r), false, func(raw RawItem, _ *xmldoc.Node) (bool, error) {
		return onItem(raw), nil
	})
}

// decode reads a <results> document with f and hands each item child to
// item: as its tree with tree set, else as its bytes.
func decode(f *xmldoc.Framer, tree bool, item func(raw RawItem, el *xmldoc.Node) (bool, error)) (*StreamSummary, error) {
	sum := &StreamSummary{}
	fail := func(err error) (*StreamSummary, error) {
		sum.Complete = false
		return sum, fmt.Errorf("wsda: decode results: %w", err)
	}
	root, err := f.Root()
	if err != nil {
		return fail(err)
	}
	if root.LocalName() != "results" {
		return fail(fmt.Errorf("expected <results> element, got <%s>", root.LocalName()))
	}
	sum.Complete = true
	summaryFromElement(sum, root)
	count := 0
	for {
		var name string
		var span []byte
		var el *xmldoc.Node
		if tree {
			if el, err = f.NextTree(); err == nil {
				name = el.Name
			}
		} else {
			var local []byte
			local, span, err = f.Next()
			name = childName(local)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		switch name {
		case "summary":
			if el == nil {
				doc, err := xmldoc.ParseBytes(span)
				if err != nil {
					return fail(err)
				}
				el = doc.DocumentElement()
			}
			summaryFromElement(sum, el)
			continue
		default:
			return fail(fmt.Errorf("unexpected result element <%s>", name))
		case "node", "atomic":
		}
		count++
		sum.Count = count
		more, err := item(span, el)
		if !more {
			// The consumer stopped, or the item was bad, before the stream
			// (and its trailing accounting) finished: whatever was left
			// unread is missing, so this result must not claim
			// completeness.
			sum.Complete = false
			return sum, err
		}
	}
	sum.Count = max(sum.Count, count)
	return sum, nil
}

// childName is a <results> child's local name as a string, without
// copying the three names a result holds.
func childName(local []byte) string {
	switch string(local) {
	case "node":
		return "node"
	case "atomic":
		return "atomic"
	case "summary":
		return "summary"
	}
	return string(local)
}

// summaryFromElement folds the accounting attributes of a <summary>
// element, or of a buffered response's <results> root, into sum.
func summaryFromElement(sum *StreamSummary, el *xmldoc.Node) {
	for _, a := range el.Attrs {
		n, err := strconv.Atoi(a.Data)
		num := err == nil
		switch {
		case a.Name == "tx":
			sum.TxID = a.Data
		case a.Name == "count" && num:
			sum.Count = n
		case a.Name == "complete":
			sum.Complete = a.Data == "true"
		case a.Name == "elapsed-ms" && num:
			sum.Elapsed = time.Duration(n) * time.Millisecond
		case a.Name == "aborted":
			sum.Aborted, sum.Network = a.Data == "true", true
		case a.Name == "nodes-contacted" && num:
			sum.NodesContacted, sum.Network = n, true
		case a.Name == "nodes-responded" && num:
			sum.NodesResponded = n
		case a.Name == "shortfall":
			sum.Shortfall = a.Data
		case a.Name == "next-cursor":
			sum.NextCursor = a.Data
		}
	}
}

// XQueryStream runs the powerful query primitive against the remote node
// with streamed delivery: the response is decoded incrementally and onItem
// is invoked per item as it arrives, so the first result surfaces while
// the server is still evaluating. maxResults > 0 asks the server to stop
// after that many items; onItem returning false stops the client-side
// parse (and, by closing the connection, the server run).
func (c *Client) XQueryStream(query string, opts registry.QueryOptions, maxResults int, onItem func(xq.Item) bool) (*StreamSummary, error) {
	q := QueryParams(opts, maxResults)
	q.Set("stream", "true")
	return c.postStream(PathXQuery, q, query, onItem)
}

// NetQueryStream submits a network query to the peer's /netquery endpoint
// and decodes the response incrementally. params carries the endpoint's
// query parameters (mode, radius, pipeline, stream, max-results, ...)
// verbatim; the summary works for both streamed and buffered responses.
func (c *Client) NetQueryStream(query string, params url.Values, onItem func(xq.Item) bool) (*StreamSummary, error) {
	return c.postStream(PathNetQuery, params, query, onItem)
}

// postStream POSTs body and hands the (possibly chunked) response to the
// incremental decoder instead of buffering it whole.
func (c *Client) postStream(path string, q url.Values, body string, onItem func(xq.Item) bool) (*StreamSummary, error) {
	resp, err := c.Do(http.MethodPost, path, q, body)
	if err != nil {
		return nil, err
	}
	// Drain-then-close, not a bare close: when the decoder stops early
	// (onItem returned false, max-results reached) the body still holds the
	// unread trailer; closing over it would tear down the keep-alive
	// connection and force the next request on this pooled transport to
	// re-dial. The drain is bounded, so a huge abandoned stream still just
	// gets its connection dropped.
	defer drainClose(resp.Body)
	sum, err := DecodeStream(resp.Body, onItem)
	if sum != nil {
		sum.Plan = resp.Header.Get(HeaderPlan)
	}
	return sum, err
}

// itemElement builds the wire element of one result item as a tree, for
// MarshalSequence. Its serialization is AppendItem's output byte for byte
// (for a RawItem, which is parsed back into its item first, the canonical
// form of its bytes).
func itemElement(it xq.Item) *xmldoc.Node {
	if raw, ok := it.(RawItem); ok {
		it, _ = raw.Item()
	}
	var wrap *xmldoc.Node
	switch v := it.(type) {
	case *xmldoc.Node:
		wrap = xmldoc.NewElement("node")
		if v.Kind == xmldoc.DocumentNode {
			v = v.DocumentElement()
		}
		switch {
		case v == nil:
		case v.Kind == xmldoc.ElementNode:
			wrap.AppendChild(v.Clone())
		case v.Kind == xmldoc.AttributeNode:
			wrap.SetAttr("attr-name", v.Name).AppendChild(xmldoc.NewText(v.Data))
		default:
			wrap.AppendChild(xmldoc.NewText(v.StringValue()))
		}
	default:
		wrap = xmldoc.NewElement("atomic").SetAttr("type", atomicType(it))
		wrap.AppendChild(xmldoc.NewText(xq.StringValue(it)))
	}
	wrap.Renumber()
	return wrap
}

// itemFromElement interprets one wire element (<node> or <atomic>) as the
// result item it stands for. A node item is taken out of c's tree, not
// copied: its Parent is cleared and it is returned as is.
func itemFromElement(c *xmldoc.Node) (xq.Item, error) {
	switch c.LocalName() {
	case "node":
		if an, ok := c.Attr("attr-name"); ok {
			return xmldoc.NewAttr(an, c.StringValue()), nil
		}
		for _, inner := range c.Children {
			if inner.Kind == xmldoc.ElementNode {
				inner.Parent = nil
				return inner, nil
			}
		}
		return xmldoc.NewText(c.StringValue()), nil
	case "atomic":
		typ, _ := c.Attr("type")
		s := c.StringValue()
		switch typ {
		case "boolean":
			return s == "true", nil
		case "integer":
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("wsda: bad integer %q", s)
			}
			return i, nil
		case "decimal":
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("wsda: bad decimal %q", s)
			}
			return f, nil
		default:
			return s, nil
		}
	}
	return nil, fmt.Errorf("wsda: unexpected result element <%s>", c.LocalName())
}
