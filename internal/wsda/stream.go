package wsda

import (
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// StreamWriter emits a chunked <results> stream over HTTP: one <node> or
// <atomic> element per item — byte-identical to the elements MarshalSequence
// produces, so streamed and buffered deliveries carry the same item bytes —
// flushed to the client as they are written, terminated by a <summary>
// element carrying the accounting. The zero value is not usable; call
// NewStreamWriter.
type StreamWriter struct {
	w          io.Writer
	fl         http.Flusher
	flushEvery int
	unflushed  int
	count      int
	started    bool
	err        error

	// Flight correlation (SetFlight): records one stream-item event per
	// written item and a stream-close on the trailer, tying the HTTP edge
	// into /debug/query/<tx>.
	fr *telemetry.FlightRecorder
	tx string
}

// NewStreamWriter prepares a streamed <results> response on w. Nothing is
// written until the first item (or Close), so callers may still answer an
// error status for failures detected before evaluation starts.
func NewStreamWriter(w http.ResponseWriter) *StreamWriter {
	fl, _ := w.(http.Flusher)
	return &StreamWriter{w: w, fl: fl, flushEvery: 1}
}

// SetFlushEvery makes the writer flush once per n items instead of after
// every item — the knob for high-volume streams where per-item flushes cost
// a syscall each. Values below 1 are treated as 1.
func (sw *StreamWriter) SetFlushEvery(n int) {
	if n < 1 {
		n = 1
	}
	sw.flushEvery = n
}

// SetFlight attaches a flight recorder and the transaction this stream
// serves; subsequent WriteItem/Close calls record stream-item and
// stream-close events. A nil recorder (or empty tx) disables recording.
func (sw *StreamWriter) SetFlight(fr *telemetry.FlightRecorder, tx string) {
	sw.fr, sw.tx = fr, tx
}

// Count returns how many items have been written so far.
func (sw *StreamWriter) Count() int { return sw.count }

// Started reports whether the response header has been committed (after
// which errors can no longer be answered with an HTTP status).
func (sw *StreamWriter) Started() bool { return sw.started }

func (sw *StreamWriter) start() {
	if sw.started {
		return
	}
	sw.started = true
	if hw, ok := sw.w.(http.ResponseWriter); ok {
		hw.Header().Set("Content-Type", "text/xml; charset=utf-8")
	}
	_, sw.err = io.WriteString(sw.w, `<results streamed="true">`)
	sw.flush()
}

func (sw *StreamWriter) flush() {
	sw.unflushed = 0
	if sw.fl != nil {
		sw.fl.Flush()
	}
}

// WriteItem appends one result item to the stream and flushes per the
// flush policy. The first call commits the response header.
func (sw *StreamWriter) WriteItem(it xq.Item) error {
	if sw.err != nil {
		return sw.err
	}
	sw.start()
	if sw.err != nil {
		return sw.err
	}
	if _, sw.err = io.WriteString(sw.w, marshalItem(it).String()); sw.err != nil {
		return sw.err
	}
	sw.count++
	sw.fr.Record(sw.tx, telemetry.FlightStreamItem, "", "", int64(sw.count), "")
	if sw.unflushed++; sw.unflushed >= sw.flushEvery {
		sw.flush()
	}
	return nil
}

// Close terminates the stream with the <summary> trailer and the closing
// </results> tag. sum.Count is overridden with the writer's own item count.
func (sw *StreamWriter) Close(sum StreamSummary) error {
	if sw.err != nil {
		return sw.err
	}
	sw.start()
	if sw.err != nil {
		return sw.err
	}
	sum.Count = sw.count
	el := xmldoc.NewElement("summary")
	if sum.TxID != "" {
		el.SetAttr("tx", sum.TxID)
	}
	el.SetAttr("count", strconv.Itoa(sum.Count))
	el.SetAttr("complete", strconv.FormatBool(sum.Complete))
	el.SetAttr("elapsed-ms", strconv.FormatInt(sum.Elapsed.Milliseconds(), 10))
	if sum.Network {
		el.SetAttr("aborted", strconv.FormatBool(sum.Aborted))
		el.SetAttr("nodes-contacted", strconv.Itoa(sum.NodesContacted))
		el.SetAttr("nodes-responded", strconv.Itoa(sum.NodesResponded))
	}
	if sum.Shortfall != "" {
		el.SetAttr("shortfall", sum.Shortfall)
	}
	if sum.NextCursor != "" {
		el.SetAttr("next-cursor", sum.NextCursor)
	}
	if _, sw.err = io.WriteString(sw.w, el.String()+"</results>"); sw.err != nil {
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

// DecodeStream incrementally parses a <results> document from r, invoking
// onItem for every result item the moment its element is fully read — no
// buffering of the document, so items surface while the producer is still
// streaming. onItem returning false stops the parse early. The returned
// summary comes from the trailing <summary> element (streamed responses) or
// from the root's own attributes (buffered responses); on early stop it
// reflects what had been seen so far.
func DecodeStream(r io.Reader, onItem func(it xq.Item) bool) (*StreamSummary, error) {
	dec := xml.NewDecoder(r)
	sum := &StreamSummary{Complete: true}
	depth := 0
	count := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if depth != 0 {
				return sum, fmt.Errorf("wsda: truncated result stream")
			}
			break
		}
		if err != nil {
			return sum, fmt.Errorf("wsda: decode results: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				if t.Name.Local != "results" {
					return sum, fmt.Errorf("wsda: expected <results> element, got <%s>", t.Name.Local)
				}
				summaryFromAttrs(sum, t.Attr)
				depth = 1
				continue
			}
			// A complete child element: materialize it from the token
			// stream, then interpret it.
			el, err := buildElement(dec, t)
			if err != nil {
				return sum, err
			}
			if el.LocalName() == "summary" {
				summaryFromElement(sum, el)
				continue
			}
			it, err := unmarshalItem(el)
			if err != nil {
				return sum, err
			}
			count++
			sum.Count = count
			if onItem != nil && !onItem(it) {
				// The consumer stopped before the stream (and its trailing
				// accounting) finished: whatever was left unread is missing,
				// so this result must not claim completeness.
				sum.Complete = false
				return sum, nil
			}
		case xml.EndElement:
			if depth == 1 && t.Name.Local == "results" {
				depth = 0
			}
		}
	}
	if sum.Count < count {
		sum.Count = count
	}
	return sum, nil
}

// summaryFromAttrs folds encoding/xml attributes (the <results> root of a
// buffered response) into the summary.
func summaryFromAttrs(sum *StreamSummary, attrs []xml.Attr) {
	el := xmldoc.NewElement("summary")
	for _, a := range attrs {
		el.SetAttr(a.Name.Local, a.Value)
	}
	summaryFromElement(sum, el)
}

// summaryFromElement folds a <summary>-shaped element's attributes into sum.
func summaryFromElement(sum *StreamSummary, el *xmldoc.Node) {
	if v, ok := el.Attr("tx"); ok {
		sum.TxID = v
	}
	if v, ok := el.Attr("count"); ok {
		if n, err := strconv.Atoi(v); err == nil {
			sum.Count = n
		}
	}
	if v, ok := el.Attr("complete"); ok {
		sum.Complete = v == "true"
	}
	if v, ok := el.Attr("elapsed-ms"); ok {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			sum.Elapsed = time.Duration(ms) * time.Millisecond
		}
	}
	if v, ok := el.Attr("aborted"); ok {
		sum.Aborted = v == "true"
		sum.Network = true
	}
	if v, ok := el.Attr("nodes-contacted"); ok {
		if n, err := strconv.Atoi(v); err == nil {
			sum.NodesContacted = n
			sum.Network = true
		}
	}
	if v, ok := el.Attr("nodes-responded"); ok {
		if n, err := strconv.Atoi(v); err == nil {
			sum.NodesResponded = n
		}
	}
	if v, ok := el.Attr("shortfall"); ok {
		sum.Shortfall = v
	}
	if v, ok := el.Attr("next-cursor"); ok {
		sum.NextCursor = v
	}
}

// buildElement materializes the element opened by se (and its whole
// subtree) from the decoder's token stream into an xmldoc tree — the
// incremental counterpart of xmldoc.Parse for one child element.
func buildElement(dec *xml.Decoder, se xml.StartElement) (*xmldoc.Node, error) {
	root := elementFromStart(se)
	cur := root
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("wsda: decode results: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := elementFromStart(t)
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			if cur == root {
				root.Renumber()
				return root, nil
			}
			cur = cur.Parent
		case xml.CharData:
			cur.AppendChild(xmldoc.NewText(string(t)))
		case xml.Comment:
			cur.AppendChild(xmldoc.NewComment(string(t)))
		}
	}
}

func elementFromStart(se xml.StartElement) *xmldoc.Node {
	el := xmldoc.NewElement(se.Name.Local)
	for _, a := range se.Attr {
		if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
			continue
		}
		el.SetAttr(a.Name.Local, a.Value)
	}
	return el
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
	u := c.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := c.newRequest(http.MethodPost, u, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/xml")
	resp, err := c.httpClient().Do(req)
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
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, &HTTPError{
			StatusCode: resp.StatusCode,
			Body:       strings.TrimSpace(string(data)),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	sum, err := DecodeStream(resp.Body, onItem)
	if sum != nil {
		sum.Plan = resp.Header.Get(HeaderPlan)
	}
	return sum, err
}

// marshalItem renders one result item as its wire element: nodes wrapped
// in <node> (attribute nodes via the attr-name form), atomics in
// <atomic type="...">. MarshalSequence and StreamWriter share it, which is
// what makes buffered and streamed item bytes identical.
func marshalItem(it xq.Item) *xmldoc.Node {
	switch v := it.(type) {
	case *xmldoc.Node:
		wrap := xmldoc.NewElement("node")
		body := v
		if body.Kind == xmldoc.DocumentNode {
			body = body.DocumentElement()
		}
		if body != nil {
			switch body.Kind {
			case xmldoc.ElementNode:
				wrap.AppendChild(body.Clone())
			case xmldoc.AttributeNode:
				wrap.SetAttr("attr-name", body.Name)
				wrap.AppendChild(xmldoc.NewText(body.Data))
			default:
				wrap.AppendChild(xmldoc.NewText(body.StringValue()))
			}
		}
		wrap.Renumber()
		return wrap
	default:
		a := xmldoc.NewElement("atomic")
		a.SetAttr("type", atomicType(it))
		a.AppendChild(xmldoc.NewText(xq.StringValue(it)))
		a.Renumber()
		return a
	}
}

// unmarshalItem parses one wire element (<node> or <atomic>) back into a
// result item — the per-item core of UnmarshalSequence, shared with the
// streaming decoder.
func unmarshalItem(c *xmldoc.Node) (xq.Item, error) {
	switch c.LocalName() {
	case "node":
		if an, ok := c.Attr("attr-name"); ok {
			return xmldoc.NewAttr(an, c.StringValue()), nil
		}
		var inner *xmldoc.Node
		for _, cc := range c.ChildElements() {
			inner = cc
			break
		}
		if inner != nil {
			n := inner.Clone()
			n.Renumber()
			return n, nil
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
