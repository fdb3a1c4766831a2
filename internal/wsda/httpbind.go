package wsda

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// HTTP binding paths for the WSDA primitives.
const (
	PathPresenter = "/wsda/presenter"
	PathPublish   = "/wsda/publish"
	PathUnpublish = "/wsda/unpublish"
	PathMinQuery  = "/wsda/minquery"
	PathXQuery    = "/wsda/xquery"
)

// PathNetQuery is the network-query endpoint peers expose alongside the
// WSDA binding (served by peerd, not by this package's Handler).
const PathNetQuery = "/netquery"

// HeaderPlan is the /wsda/xquery response header describing how the
// registry executed the query (registry.PlanInfo.String form); wsdaquery
// -explain surfaces it.
const HeaderPlan = "X-Wsda-Plan"

// StatusCoder lets a Node error pick its own HTTP status instead of the
// handler's default. The shard guard uses it to answer a publish for a key
// this shard does not own with 421 Misdirected Request — a definitive,
// non-retryable rejection telling the client to consult the partition map,
// not to resend.
type StatusCoder interface {
	// HTTPStatus is the response code this error should map to.
	HTTPStatus() int
}

// errorStatus returns err's own HTTP status when it carries one (directly
// or wrapped), the fallback otherwise.
func errorStatus(err error, fallback int) int {
	var sc StatusCoder
	if errors.As(err, &sc) {
		return sc.HTTPStatus()
	}
	return fallback
}

// Handler exposes a Node over the WSDA HTTP protocol binding. Register it
// on any mux; all paths are absolute.
func Handler(n Node) http.Handler { return HandlerWithObservability(n, nil, nil) }

// HandlerWithObservability is Handler with edge telemetry and flight
// correlation. When m is non-nil, streamed /wsda/xquery responses record
// the time from request start to the first item in the
// wsda_http_first_item_seconds histogram. When fr is non-nil and a
// /wsda/xquery request carries a tx parameter
// (minted by a router or another upstream), the local evaluation's flight
// events — plan choice, view hits, streamed items — are recorded under
// that transaction ID, so a routed query is explainable end-to-end by
// asking each hop's /debug/query/<tx> for the same tx.
func HandlerWithObservability(n Node, m *telemetry.Metrics, fr *telemetry.FlightRecorder) http.Handler {
	edge := NewEdge(m, fr, "xquery", true)
	mux := http.NewServeMux()
	mux.HandleFunc(PathPresenter, func(w http.ResponseWriter, r *http.Request) {
		desc, err := n.GetServiceDescription()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		WriteXML(w, desc.ToXML())
	})
	mux.HandleFunc(PathPublish, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
			return
		}
		t, ttl, err := ParsePublish(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		granted, err := n.Publish(t, ttl)
		if err != nil {
			httpError(w, errorStatus(err, http.StatusUnprocessableEntity), err)
			return
		}
		resp := xmldoc.NewElement("granted")
		resp.SetAttr("ttl-ms", strconv.FormatInt(granted.Milliseconds(), 10))
		WriteXML(w, resp)
	})
	mux.HandleFunc(PathUnpublish, func(w http.ResponseWriter, r *http.Request) {
		link := r.URL.Query().Get("link")
		if link == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("missing link parameter"))
			return
		}
		if err := n.Unpublish(link); err != nil {
			httpError(w, errorStatus(err, http.StatusInternalServerError), err)
			return
		}
		WriteXML(w, xmldoc.NewElement("ok"))
	})
	mux.HandleFunc(PathMinQuery, func(w http.ResponseWriter, r *http.Request) {
		tuples, err := n.MinQuery(FilterParams(r.URL.Query()))
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		root := xmldoc.NewElement("tupleset")
		for _, t := range tuples {
			root.AppendChild(t.ToXML())
		}
		WriteXML(w, root)
	})
	mux.HandleFunc(PathXQuery, func(w http.ResponseWriter, r *http.Request) {
		query, opts, d := edge.Open(w, r)
		if d == nil {
			return
		}
		d.SetTx(opts.TxID)
		// Capture the chosen plan; local registries fill it before the
		// first item is emitted, so the header can lead a streamed body.
		var plan registry.PlanInfo
		opts.Explain = &plan
		d.OnCommit = func(h http.Header) {
			if plan.Mode != "" {
				h.Set(HeaderPlan, plan.String())
			}
		}
		// Items leave through the Emit callback the moment the engine
		// produces them, those it holds together (a sorted result) in one
		// flush; evaluation stops early when Item says so.
		opts.Emit, opts.Held = d.Item, d.Hold
		seq, err := n.XQuery(query, opts)
		if err != nil {
			d.Fail(err, http.StatusUnprocessableEntity)
			return
		}
		// Nodes that do not honor Emit (e.g. a proxying Client) return the
		// full sequence instead; feed it through the same delivery path.
		for _, it := range seq {
			if !d.Item(it) {
				break
			}
		}
		d.Finish(StreamSummary{Complete: true})
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

// WriteXML answers with n as a text/xml document: the binding's
// non-query responses, here and at the router.
func WriteXML(w http.ResponseWriter, n *xmldoc.Node) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = io.WriteString(w, n.String())
}

// MarshalSequence renders a result sequence as a <results> element tree —
// nodes wrapped in <node>, atomics in <atomic type="..."> — for callers
// that embed it in a larger document (PDP messages); a buffered Delivery
// writes the same bytes without it.
func MarshalSequence(seq xq.Sequence) *xmldoc.Node {
	root := xmldoc.NewElement("results")
	root.SetAttr("count", strconv.Itoa(len(seq)))
	for _, it := range seq {
		root.AppendChild(itemElement(it))
	}
	root.Renumber()
	return root
}

func atomicType(it xq.Item) string {
	switch it.(type) {
	case bool:
		return "boolean"
	case int64:
		return "integer"
	case float64:
		return "decimal"
	default:
		return "string"
	}
}

// UnmarshalSequence parses a <results> element back into a sequence. Node
// items come back as detached element trees (document identity is not
// preserved across the wire), taken out of root's tree rather than copied.
func UnmarshalSequence(root *xmldoc.Node) (xq.Sequence, error) {
	if root.Kind == xmldoc.DocumentNode {
		root = root.DocumentElement()
	}
	if root == nil || root.LocalName() != "results" {
		return nil, fmt.Errorf("wsda: expected <results> element")
	}
	var seq xq.Sequence
	for _, c := range root.ChildElements() {
		switch c.LocalName() {
		case "node", "atomic":
			it, err := itemFromElement(c)
			if err != nil {
				return nil, err
			}
			seq = append(seq, it)
		default:
			// Skip non-item elements (e.g. a <summary> trailer).
		}
	}
	return seq, nil
}

// Client talks the WSDA HTTP binding to a remote node. BaseURL is the
// node's root (scheme://host:port); the client appends the binding paths.
type Client struct {
	BaseURL string       // node root, scheme://host:port
	HTTP    *http.Client // transport override; nil uses DefaultHTTPClient (pooled, sane timeouts)
	// Token is sent as "Authorization: Bearer <Token>" on every request
	// — a static tenant token or one minted by `wsdaquery mint` — for
	// nodes running behind a -tenants gate. Empty sends no header.
	Token string

	ctx context.Context // WithContext; nil is context.Background()
}

var _ Node = (*Client)(nil)

// NewClient returns a client for the node at baseURL, on the package's
// shared pooled transport (DefaultHTTPClient). Set HTTP afterwards to
// override per-client.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: DefaultHTTPClient}
}

// WithContext returns a shallow copy of c whose requests carry ctx, in the
// style of http.Request.WithContext: the primitives keep their ctx-free
// Node signatures, and a caller holding a context (the router's shard
// backend) cancels the remote call with it.
func (c *Client) WithContext(ctx context.Context) *Client {
	c2 := *c
	c2.ctx = ctx
	return &c2
}

// Do is the one request path to a node: it spells the URL (BaseURL + path
// + encoded q), sends body (if any) as text/xml with the client's token
// and context, and maps every non-200 answer to an *HTTPError carrying the
// node's error text and Retry-After hint. The caller closes the returned
// response's body. Everything the Client and the router's HTTPBackend
// send goes through here.
func (c *Client) Do(method, path string, q url.Values, body string) (*http.Response, error) {
	u := c.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "text/xml")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, &HTTPError{
			StatusCode: resp.StatusCode,
			Body:       strings.TrimSpace(string(data)),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return resp, nil
}

// MaxResponseBytes caps a whole answer the Client reads before using it:
// every fetch (presenter, publish, unpublish, MinQuery) and XQuery's
// buffered <results>. A longer answer fails with ErrResponseTooLarge
// instead of being cut short. Streamed answers (XQueryStream,
// NetQueryStream, XQueryPage) are read item by item and are not capped.
const MaxResponseBytes = 64 << 20

// ErrResponseTooLarge is the error of a Client call whose answer exceeds
// MaxResponseBytes.
var ErrResponseTooLarge = fmt.Errorf("wsda: response exceeds %d MiB", MaxResponseBytes>>20)

// fetch is Do for an XML document answer, read and parsed whole; it also
// returns the response headers for side-channel metadata like X-Wsda-Plan.
func (c *Client) fetch(method, path string, q url.Values, body string) (*xmldoc.Node, http.Header, error) {
	resp, err := c.Do(method, path, q, body)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxResponseBytes+1))
	if len(data) > MaxResponseBytes {
		err = ErrResponseTooLarge
	}
	if err != nil {
		return nil, nil, err
	}
	doc, err := xmldoc.ParseBytes(data)
	return doc, resp.Header, err
}

// HTTPError is a non-2xx response from a remote WSDA node. It carries the
// status code so callers can tell definitive client-side rejections (a
// malformed query stays malformed, however often it is resent) from
// transient server-side failures worth retrying.
type HTTPError struct {
	StatusCode int    // HTTP status the node answered with
	Body       string // trimmed response body (the error text)
	// RetryAfter is the node's Retry-After hint (tenant gates send one with
	// 429), 0 when absent. Retry loops should wait at least this long —
	// capped by their own policy — before resending.
	RetryAfter time.Duration
}

// Error formats the status and the remote error text.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("wsda: remote error %d: %s", e.StatusCode, e.Body)
}

// Retryable reports whether resending the same request can plausibly
// succeed: 5xx server errors, request timeouts and rate limiting are
// retryable; every other 4xx is a definitive rejection.
func (e *HTTPError) Retryable() bool {
	return e.StatusCode >= 500 ||
		e.StatusCode == http.StatusRequestTimeout ||
		e.StatusCode == http.StatusTooManyRequests
}

// GetServiceDescription implements Presenter against the remote node. This
// is also the service-link resolution mechanism: an HTTP GET retrieving the
// current description.
func (c *Client) GetServiceDescription() (*Service, error) {
	doc, _, err := c.fetch(http.MethodGet, PathPresenter, nil, "")
	if err != nil {
		return nil, err
	}
	return ServiceFromXML(doc)
}

// Publish implements Consumer against the remote node.
func (c *Client) Publish(t *tuple.Tuple, ttl time.Duration) (time.Duration, error) {
	req := xmldoc.NewElement("publish")
	req.SetAttr("ttl-ms", strconv.FormatInt(ttl.Milliseconds(), 10))
	req.AppendChild(t.ToXML())
	doc, _, err := c.fetch(http.MethodPost, PathPublish, nil, req.String())
	if err != nil {
		return 0, err
	}
	root := doc.DocumentElement()
	if root == nil || root.LocalName() != "granted" {
		return 0, fmt.Errorf("wsda: unexpected publish response")
	}
	s, _ := root.Attr("ttl-ms")
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wsda: bad granted ttl %q", s)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// Unpublish implements Consumer against the remote node.
func (c *Client) Unpublish(link string) error {
	_, _, err := c.fetch(http.MethodGet, PathUnpublish, url.Values{"link": {link}}, "")
	return err
}

// MinQuery implements the minimal query primitive against the remote node.
func (c *Client) MinQuery(f registry.Filter) ([]*tuple.Tuple, error) {
	doc, _, err := c.fetch(http.MethodGet, PathMinQuery, QueryParams(registry.QueryOptions{Filter: f}, 0), "")
	if err != nil {
		return nil, err
	}
	root := doc.DocumentElement()
	if root == nil || root.LocalName() != "tupleset" {
		return nil, fmt.Errorf("wsda: unexpected minquery response")
	}
	var out []*tuple.Tuple
	for _, el := range root.ChildElements() {
		t, err := tuple.FromXML(el)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// FilterParams reads the attribute pre-filter (type, ctx, prefix) from
// request parameters, as QueryParams writes it.
func FilterParams(q url.Values) registry.Filter {
	return registry.Filter{Type: q.Get("type"), Context: q.Get("ctx"), LinkPrefix: q.Get("prefix")}
}

// QueryParams renders the wire-crossing query options (Filter, Freshness
// and TxID; Emit and Vars are local-only concepts) and the result bound as
// /wsda/xquery URL parameters — the one encoder the Client, the router's
// shard backend and anything else speaking the binding share; Edge.Open
// is its inverse.
func QueryParams(opts registry.QueryOptions, maxResults int) url.Values {
	q := url.Values{}
	for _, p := range [...][2]string{{"type", opts.Filter.Type}, {"ctx", opts.Filter.Context},
		{"prefix", opts.Filter.LinkPrefix}, {"tx", opts.TxID}} {
		if p[1] != "" {
			q.Set(p[0], p[1])
		}
	}
	if opts.Freshness.MaxAge > 0 {
		q.Set("maxage-ms", strconv.FormatInt(opts.Freshness.MaxAge.Milliseconds(), 10))
	}
	if opts.Freshness.PullMissing {
		q.Set("pull-missing", "true")
	}
	if maxResults > 0 {
		q.Set("max-results", strconv.Itoa(maxResults))
	}
	return q
}

// ParsePublish decodes a /wsda/publish request body — <publish ttl-ms>
// around one <tuple> — for this package's handler and the router's. Every
// error is the client's (400).
func ParsePublish(body io.Reader) (*tuple.Tuple, time.Duration, error) {
	doc, err := xmldoc.Parse(body)
	if err != nil {
		return nil, 0, err
	}
	root := doc.DocumentElement()
	if root == nil || root.LocalName() != "publish" {
		return nil, 0, fmt.Errorf("expected <publish> element")
	}
	var ttl time.Duration
	if s, ok := root.Attr("ttl-ms"); ok {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad ttl-ms: %v", err)
		}
		ttl = time.Duration(ms) * time.Millisecond
	}
	tupleEl := root.FirstChildElement("tuple")
	if tupleEl == nil {
		return nil, 0, fmt.Errorf("missing <tuple>")
	}
	t, err := tuple.FromXML(tupleEl)
	return t, ttl, err
}

// XQuery implements the powerful query primitive against the remote node.
// Only the Filter and Freshness options cross the wire; Emit and Vars are
// local-only concepts. When opts.Explain is set it is filled from the
// remote node's X-Wsda-Plan header (the view fallback when absent). The
// buffered answer is read through DecodeStream, as a streamed one is,
// up to MaxResponseBytes.
func (c *Client) XQuery(query string, opts registry.QueryOptions) (xq.Sequence, error) {
	resp, err := c.Do(http.MethodPost, PathXQuery, QueryParams(opts, 0), query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body := &io.LimitedReader{R: resp.Body, N: MaxResponseBytes + 1}
	var seq xq.Sequence
	_, err = DecodeStream(body, func(it xq.Item) bool {
		seq = append(seq, it)
		return true
	})
	if body.N == 0 {
		err = ErrResponseTooLarge
	}
	if err != nil {
		return nil, err
	}
	if opts.Explain != nil {
		*opts.Explain = registry.ParsePlanInfo(resp.Header.Get(HeaderPlan))
	}
	return seq, nil
}
