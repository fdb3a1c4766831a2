package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// QuerySpec is one query as the router forwards it to a shard: the query
// source plus the wire-crossing options and the router-minted transaction
// ID that threads the shard's flight events into the routed recording.
type QuerySpec struct {
	Query      string             // XQuery source
	Filter     registry.Filter    // attribute pre-filter
	Freshness  registry.Freshness // content freshness bounds
	MaxResults int                // per-shard item bound; 0 = unlimited
	TxID       string             // router-minted transaction ID ("" = none)
}

// options is the spec's wire-crossing part in the registry's own terms.
func (s QuerySpec) options() registry.QueryOptions {
	return registry.QueryOptions{Filter: s.Filter, Freshness: s.Freshness, TxID: s.TxID}
}

// Backend is one shard as the router sees it: the WSDA write and query
// primitives plus health and partition-map administration. HTTPBackend
// talks to a registryd across the network; LocalBackend wraps an
// in-process registry for tests and experiments, where an HTTP hop per
// operation would measure the transport instead of the sharding.
type Backend interface {
	// Name identifies the shard in metrics, flight events and shortfall
	// text (the base URL for HTTP backends).
	Name() string
	// Publish inserts or refreshes a tuple on the shard.
	Publish(ctx context.Context, t *tuple.Tuple, ttl time.Duration) (time.Duration, error)
	// Unpublish removes a tuple from the shard.
	Unpublish(ctx context.Context, link string) error
	// MinQuery runs the minimal query primitive on the shard.
	MinQuery(ctx context.Context, f registry.Filter) ([]*tuple.Tuple, error)
	// QueryStream evaluates spec on the shard, streaming items through
	// onItem as they are produced; onPlan delivers the shard's query plan
	// (X-Wsda-Plan form) before the first item. Canceling ctx stops the
	// shard-side evaluation. onItem returning false stops delivery.
	QueryStream(ctx context.Context, spec QuerySpec, onPlan func(plan string), onItem func(it xq.Item) bool) (*wsda.StreamSummary, error)
	// Healthy reports liveness (nil = the shard process answers).
	Healthy(ctx context.Context) error
	// Ready reports readiness to serve reads; a shard still bootstrapping
	// its key range returns an error carrying HTTP 503.
	Ready(ctx context.Context) error
	// Assign installs a new partition assignment on the shard (stopping
	// any rebalance tailers and pruning keys outside the new range) and
	// returns how many tuples the shard pruned.
	Assign(ctx context.Context, a Assignment) (pruned int, err error)
}

// LocalBackend adapts an in-process registry (optionally fronted by a
// Member guard) to the Backend interface. It is what the scale-out
// experiments and unit tests run against: all routing and merge logic is
// exercised, none of the HTTP transport.
type LocalBackend struct {
	Label  string             // shard name for accounting
	Reg    *registry.Registry // the shard's tuple store
	Member *Member            // optional guard/rebalance state
	// ReadyErr, when non-nil, is returned by Ready — a test hook for
	// simulating a bootstrapping or unreachable shard.
	ReadyErr error
}

var _ Backend = (*LocalBackend)(nil)

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.Label }

// Publish implements Backend; with a Member attached, out-of-range keys
// are rejected exactly as the HTTP guard would.
func (b *LocalBackend) Publish(_ context.Context, t *tuple.Tuple, ttl time.Duration) (time.Duration, error) {
	if b.Member != nil {
		if err := b.Member.CheckOwns(t.Link); err != nil {
			return 0, err
		}
	}
	return b.Reg.Publish(t, ttl)
}

// Unpublish implements Backend.
func (b *LocalBackend) Unpublish(_ context.Context, link string) error {
	if b.Member != nil {
		if err := b.Member.CheckOwns(link); err != nil {
			return err
		}
	}
	b.Reg.Unpublish(link)
	return nil
}

// MinQuery implements Backend.
func (b *LocalBackend) MinQuery(_ context.Context, f registry.Filter) ([]*tuple.Tuple, error) {
	return b.Reg.MinQuery(f), nil
}

// QueryStream implements Backend by evaluating on the local registry with
// Emit delivery, honoring ctx cancellation between items.
func (b *LocalBackend) QueryStream(ctx context.Context, spec QuerySpec, onPlan func(string), onItem func(xq.Item) bool) (*wsda.StreamSummary, error) {
	start := time.Now()
	var plan registry.PlanInfo
	opts := spec.options()
	opts.Explain = &plan
	count := 0
	truncated := false
	opts.Emit = func(it xq.Item) bool {
		if ctx.Err() != nil {
			truncated = true
			return false
		}
		if count == 0 && onPlan != nil {
			onPlan(plan.String())
		}
		if !onItem(it) {
			truncated = true
			return false
		}
		count++
		if spec.MaxResults > 0 && count >= spec.MaxResults {
			truncated = true
			return false
		}
		return true
	}
	if _, err := b.Reg.Query(spec.Query, opts); err != nil { // every item left through Emit
		return nil, err
	}
	return &wsda.StreamSummary{
		Count:    count,
		Complete: !truncated,
		Elapsed:  time.Since(start),
		Plan:     plan.String(),
	}, nil
}

// Healthy implements Backend: an in-process registry is always live.
func (b *LocalBackend) Healthy(context.Context) error { return nil }

// Ready implements Backend: ready unless a test hook or an attached
// Member's unfinished bootstrap says otherwise.
func (b *LocalBackend) Ready(context.Context) error {
	if b.ReadyErr != nil {
		return b.ReadyErr
	}
	if b.Member != nil && !b.Member.Ready() {
		return fmt.Errorf("shard %s: %w", b.Label, ErrBootstrapping)
	}
	return nil
}

// Assign implements Backend.
func (b *LocalBackend) Assign(_ context.Context, a Assignment) (int, error) {
	if b.Member != nil {
		return b.Member.SetAssignment(a), nil
	}
	return b.Reg.PruneLinks(a.Owns), nil
}

// HTTPBackend is a shard reached over the WSDA HTTP binding — the shape
// routerd deploys against real registryd shards. Every call it makes is a
// wsda.Client call carrying the caller's ctx (wsda.Client.Do is the one
// request path), so a shard's error comes back as a *wsda.HTTPError with
// its Retry-After hint and a cancelled ctx cancels the shard call.
type HTTPBackend struct {
	client *wsda.Client
}

var _ Backend = (*HTTPBackend)(nil)

// NewHTTPBackend returns a backend for the shard at base (scheme://host:
// port). hc is shared across backends so the router reuses keep-alive
// connections per shard; nil uses a client with a generous default
// timeout for writes and health probes (streamed queries carry their own
// cancellation via ctx).
func NewHTTPBackend(base string, hc *http.Client) *HTTPBackend {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPBackend{client: &wsda.Client{BaseURL: strings.TrimSuffix(base, "/"), HTTP: hc}}
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.client.BaseURL }

// Publish implements Backend.
func (b *HTTPBackend) Publish(ctx context.Context, t *tuple.Tuple, ttl time.Duration) (time.Duration, error) {
	return b.client.WithContext(ctx).Publish(t, ttl)
}

// Unpublish implements Backend.
func (b *HTTPBackend) Unpublish(ctx context.Context, link string) error {
	return b.client.WithContext(ctx).Unpublish(link)
}

// MinQuery implements Backend.
func (b *HTTPBackend) MinQuery(ctx context.Context, f registry.Filter) ([]*tuple.Tuple, error) {
	return b.client.WithContext(ctx).MinQuery(f)
}

// QueryStream implements Backend: POST /wsda/xquery?stream=true with the
// spec's parameters, framing the chunked response incrementally: onItem
// gets each item as a wsda.RawItem, the shard's bytes, valid until it
// returns. The request rides ctx, so a router-side cancel (max-results
// reached, client gone) tears the shard's evaluation down mid-stream.
func (b *HTTPBackend) QueryStream(ctx context.Context, spec QuerySpec, onPlan func(string), onItem func(xq.Item) bool) (*wsda.StreamSummary, error) {
	q := wsda.QueryParams(spec.options(), spec.MaxResults)
	q.Set("stream", "true")
	resp, err := b.client.WithContext(ctx).Do(http.MethodPost, wsda.PathXQuery, q, spec.Query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	plan := resp.Header.Get(wsda.HeaderPlan)
	if onPlan != nil {
		onPlan(plan)
	}
	sum, err := wsda.DecodeRawStream(resp.Body, func(raw wsda.RawItem) bool { return onItem(raw) })
	if sum != nil {
		sum.Plan = plan
	}
	return sum, err
}

// Healthy implements Backend via GET /healthz.
func (b *HTTPBackend) Healthy(ctx context.Context) error {
	return b.probe(ctx, "/healthz")
}

// Ready implements Backend via GET /readyz; a 503 (bootstrapping shard)
// comes back as a wsda.HTTPError so the router can tell "not yet" from
// "not there".
func (b *HTTPBackend) Ready(ctx context.Context) error {
	return b.probe(ctx, "/readyz")
}

func (b *HTTPBackend) probe(ctx context.Context, path string) error {
	resp, err := b.client.WithContext(ctx).Do(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Read the few bytes of a probe answer so the connection is reusable.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// Assign implements Backend via POST /wsda/shard/cutover?of=K/N.
func (b *HTTPBackend) Assign(ctx context.Context, a Assignment) (int, error) {
	resp, err := b.client.WithContext(ctx).Do(http.MethodPost, PathShardCutover, url.Values{"of": {a.String()}}, "")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Pruned int `json:"pruned"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return 0, fmt.Errorf("shard: bad cutover response from %s: %w", b.Name(), err)
	}
	return out.Pruned, nil
}
