package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// HeaderRoute is the router's response header describing its routing
// decision for a query: "shard=K/N" (a link-equality plan pinned one
// shard), "scatter=N" (fan-out to every shard), or "never" (statically
// empty, no shard contacted).
const HeaderRoute = "X-Wsda-Route"

// Router administration paths.
const (
	// PathRouterStatus answers GET with the partition map as JSON.
	PathRouterStatus = "/router/status"
	// PathRouterCutover answers POST ?peers=urlA,urlB,... by cutting the
	// partition map over to the listed shards under the write barrier.
	PathRouterCutover = "/router/cutover"
)

// Config configures a Router.
type Config struct {
	// Backends is the initial partition map, in shard order: Backends[i]
	// serves Assignment{i, len(Backends)}.
	Backends []Backend
	// Desc is the service description the router presents; nil presents a
	// minimal "wsda-router" service.
	Desc *wsda.Service
	// Metrics, when set, gains the wsda_router_* families.
	Metrics *telemetry.Metrics
	// Flight, when set, records routed-query flight events: the router
	// mints one transaction ID per query, forwards it to every shard, and
	// records the dispatch/merge/shard-error timeline under it.
	Flight *telemetry.FlightRecorder
	// Logger nil discards.
	Logger *slog.Logger
	// Dial builds a Backend for a peer base URL at cutover time; nil uses
	// NewHTTPBackend with a shared client.
	Dial func(base string) Backend
	// HealthTimeout bounds each per-shard health/readiness probe.
	// Defaults to 2s.
	HealthTimeout time.Duration
}

// Router owns no tuples: it accepts the full WSDA HTTP surface, routes
// each write to the shard owning the key, and scatter-gathers queries
// across the shards with a streamed merge. A single RWMutex is the
// rebalance cutover barrier — queries and writes hold it shared for their
// whole duration, a cutover takes it exclusively — so no query ever
// observes a half-installed partition map.
type Router struct {
	cfg    Config
	logger *slog.Logger

	mu       sync.RWMutex // cutover barrier
	backends []Backend

	seq atomic.Int64 // transaction ID mint

	requests    *telemetry.CounterVec
	shardErrors *telemetry.CounterVec
	fanout      *telemetry.CounterVec
	cutovers    *telemetry.Counter
	edge        *wsda.Edge // the /wsda/xquery and /netquery edge, path="router"
}

// NewRouter builds a Router over cfg.Backends.
func NewRouter(cfg Config) *Router {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.Dial == nil {
		hc := &http.Client{Timeout: 30 * time.Second}
		cfg.Dial = func(base string) Backend { return NewHTTPBackend(base, hc) }
	}
	rt := &Router{cfg: cfg, logger: cfg.Logger, backends: cfg.Backends,
		// A scatter merges in arrival order, so the edge refuses pages.
		edge: wsda.NewEdge(cfg.Metrics, cfg.Flight, "router", false)}
	if m := cfg.Metrics; m != nil {
		rt.requests = m.CounterVec("wsda_router_requests_total",
			"Requests accepted by the router, by path.", "path")
		rt.shardErrors = m.CounterVec("wsda_router_shard_errors_total",
			"Shard calls that failed (transport error or non-2xx), by shard.", "shard")
		rt.fanout = m.CounterVec("wsda_router_fanout_total",
			"Query routing decisions, by route class (single, scatter, never).", "route")
		rt.cutovers = m.Counter("wsda_router_cutovers_total",
			"Partition-map cutovers performed under the write barrier.")
		m.GaugeFunc("wsda_router_shards",
			"Shards in the router's current partition map.",
			func() float64 { return float64(len(rt.Backends())) })
	}
	return rt
}

// Backends returns the current partition map, in shard order.
func (rt *Router) Backends() []Backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]Backend, len(rt.backends))
	copy(out, rt.backends)
	return out
}

func (rt *Router) mintTx() string {
	return fmt.Sprintf("router#%d", rt.seq.Add(1))
}

// CutoverTo installs a new partition map under the write barrier. With the
// barrier held (no query or write in flight), every backend is told its
// new assignment — backends NOT in the old map first, so a joining shard's
// rebalance tails stop before any old owner prunes the keys it handed off
// (a prune riding the feed into a still-tailing joiner would delete the
// just-moved tuples). Returns per-shard pruned counts. On error the old
// map stays installed; shards already assigned keep the new assignment, so
// the operator retries the cutover rather than unwinding it.
func (rt *Router) CutoverTo(ctx context.Context, backends []Backend) (map[string]int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := make(map[string]bool, len(rt.backends))
	for _, b := range rt.backends {
		old[b.Name()] = true
	}
	total := len(backends)
	var order []int
	for i, b := range backends {
		if !old[b.Name()] {
			order = append(order, i)
		}
	}
	for i, b := range backends {
		if old[b.Name()] {
			order = append(order, i)
		}
	}
	pruned := make(map[string]int, total)
	for _, i := range order {
		b := backends[i]
		n, err := b.Assign(ctx, Assignment{Index: i, Total: total})
		if err != nil {
			return pruned, fmt.Errorf("shard: cutover: assign %s=%d/%d: %w", b.Name(), i, total, err)
		}
		pruned[b.Name()] = n
	}
	rt.backends = backends
	rt.cutovers.Inc()
	names := make([]string, total)
	for i, b := range backends {
		names[i] = b.Name()
	}
	rt.logger.Info("partition map cutover", "shards", total, "map", strings.Join(names, ","), "pruned", fmt.Sprint(pruned))
	return pruned, nil
}

// Handler exposes the router over HTTP: the full WSDA binding plus
// /netquery (same scatter-gather semantics; network-routing parameters
// are accepted and ignored, the shards ARE the network), aggregate
// /healthz and /readyz, and the /router/* administration endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(wsda.PathPresenter, rt.counted("presenter", rt.handlePresenter))
	mux.HandleFunc(wsda.PathPublish, rt.counted("publish", rt.handlePublish))
	mux.HandleFunc(wsda.PathUnpublish, rt.counted("unpublish", rt.handleUnpublish))
	mux.HandleFunc(wsda.PathMinQuery, rt.counted("minquery", rt.handleMinQuery))
	mux.HandleFunc(wsda.PathXQuery, rt.counted("xquery", rt.handleQuery))
	mux.HandleFunc(wsda.PathNetQuery, rt.counted("netquery", rt.handleQuery))
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/readyz", rt.handleHealth)
	mux.HandleFunc(PathRouterStatus, rt.handleStatus)
	mux.HandleFunc(PathRouterCutover, rt.handleCutoverHTTP)
	return mux
}

func (rt *Router) counted(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.requests.With(path).Inc()
		h(w, r)
	}
}

// backendStatus maps a shard call failure to the status the router
// reports: the error's own status when it carries one (a shard's 421 for
// a stale partition map passes through), 502 Bad Gateway otherwise.
func backendStatus(err error) int {
	var he *wsda.HTTPError
	if errors.As(err, &he) {
		return he.StatusCode
	}
	var sc wsda.StatusCoder
	if errors.As(err, &sc) {
		return sc.HTTPStatus()
	}
	return http.StatusBadGateway
}

func (rt *Router) handlePresenter(w http.ResponseWriter, _ *http.Request) {
	desc := rt.cfg.Desc
	if desc == nil {
		desc = &wsda.Service{Name: "wsda-router"}
	}
	writeXML(w, desc.ToXML())
}

func (rt *Router) handlePublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	t, ttl, err := wsda.ParsePublish(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	b, status := rt.ownerLocked(t.Link)
	if b == nil {
		http.Error(w, "router has no shards", status)
		return
	}
	granted, err := b.Publish(r.Context(), t, ttl)
	if err != nil {
		rt.shardErrors.With(b.Name()).Inc()
		http.Error(w, err.Error(), backendStatus(err))
		return
	}
	resp := xmldoc.NewElement("granted")
	resp.SetAttr("ttl-ms", strconv.FormatInt(granted.Milliseconds(), 10))
	writeXML(w, resp)
}

func (rt *Router) handleUnpublish(w http.ResponseWriter, r *http.Request) {
	link := r.URL.Query().Get("link")
	if link == "" {
		http.Error(w, "missing link parameter", http.StatusBadRequest)
		return
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	b, status := rt.ownerLocked(link)
	if b == nil {
		http.Error(w, "router has no shards", status)
		return
	}
	if err := b.Unpublish(r.Context(), link); err != nil {
		rt.shardErrors.With(b.Name()).Inc()
		http.Error(w, err.Error(), backendStatus(err))
		return
	}
	writeXML(w, xmldoc.NewElement("ok"))
}

// ownerLocked picks the shard owning link under the (already held) read
// barrier. A nil backend means the map is empty; the int is the status to
// answer with.
func (rt *Router) ownerLocked(link string) (Backend, int) {
	if len(rt.backends) == 0 {
		return nil, http.StatusServiceUnavailable
	}
	return rt.backends[Owner(link, len(rt.backends))], http.StatusOK
}

func (rt *Router) handleMinQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := registry.Filter{
		Type:       q.Get("type"),
		Context:    q.Get("ctx"),
		LinkPrefix: q.Get("prefix"),
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	backends := rt.backends
	type res struct {
		tuples []*tuple.Tuple
		err    error
	}
	results := make([]res, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			tuples, err := b.MinQuery(r.Context(), f)
			results[i] = res{tuples, err}
		}(i, b)
	}
	wg.Wait()
	var merged []*tuple.Tuple
	var shortfalls []string
	for i, rr := range results {
		if rr.err != nil {
			rt.shardErrors.With(backends[i].Name()).Inc()
			shortfalls = append(shortfalls, fmt.Sprintf("%s: %v", backends[i].Name(), rr.err))
			continue
		}
		merged = append(merged, rr.tuples...)
	}
	if len(backends) > 0 && len(shortfalls) == len(backends) {
		http.Error(w, "all shards failed: "+strings.Join(shortfalls, "; "), http.StatusBadGateway)
		return
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Link < merged[j].Link })
	root := xmldoc.NewElement("tupleset")
	if len(shortfalls) > 0 {
		root.SetAttr("complete", "false")
		root.SetAttr("shortfall", strings.Join(shortfalls, "; "))
	}
	for _, t := range merged {
		root.AppendChild(t.ToXML())
	}
	writeXML(w, root)
}

// handleQuery is the scatter-gather core behind both /wsda/xquery and
// /netquery. The compiled query's discovery plan picks the route (one
// shard, all shards, or none); targets are queried concurrently with the
// router's transaction ID, their streams merged item-by-item into the
// response as they arrive, and the trailing summary aggregates
// completeness, per-shard shortfall, and fan-out accounting. max-results
// and a client disconnect cancel the whole fan-out; one dead shard does
// not fail the response — it is named in the summary's shortfall with
// complete="false".
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, opts, d := rt.edge.Open(w, r)
	if d == nil {
		return
	}
	tx := opts.TxID
	if tx == "" {
		tx = rt.mintTx()
	}
	d.SetTx(tx)
	spec := QuerySpec{Query: query, Filter: opts.Filter, Freshness: opts.Freshness,
		MaxResults: d.MaxResults(), TxID: tx}
	compiled, err := xq.Compile(spec.Query)
	if err != nil {
		d.Fail(err, http.StatusUnprocessableEntity)
		return
	}
	fr := rt.cfg.Flight

	// The read barrier is held for the whole scatter-gather: a cutover
	// waits for every in-flight query, so no query spans two partition
	// maps (which could observe a moving tuple twice, or miss it).
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	backends := rt.backends
	route := RouteQuery(compiled, spec.Filter.LinkPrefix, len(backends))
	var targets []Backend
	switch {
	case len(backends) == 0:
		d.Fail(errors.New("router has no shards"), http.StatusServiceUnavailable)
		return
	case route.Never:
		rt.fanout.With("never").Inc()
	case route.Single:
		targets = backends[route.Shard : route.Shard+1]
		rt.fanout.With("single").Inc()
	default:
		targets = backends
		rt.fanout.With("scatter").Inc()
	}
	routeNote := route.Note(len(backends))
	w.Header().Set(HeaderRoute, routeNote)
	fr.Record(tx, telemetry.FlightReceived, "router", "", 1, strings.TrimPrefix(r.URL.Path, "/"))
	for _, b := range targets {
		fr.Record(tx, telemetry.FlightRouted, "router", b.Name(), 1, routeNote)
	}

	start := time.Now()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// One mutex serializes the merge: every Item, and the first shard plan
	// seen, which the response reflects if it arrives before the headers
	// commit.
	var mu sync.Mutex
	plan := ""
	d.OnCommit = func(h http.Header) {
		if plan != "" {
			h.Set(wsda.HeaderPlan, plan)
		}
	}
	onPlan := func(p string) {
		mu.Lock()
		defer mu.Unlock()
		if plan == "" {
			plan = p
		}
	}
	deliver := func(it xq.Item) bool {
		mu.Lock()
		defer mu.Unlock()
		if d.Item(it) {
			return true
		}
		cancel() // bound reached or client gone: stop the whole fan-out
		return false
	}

	type shardResult struct {
		sum *wsda.StreamSummary
		err error
	}
	results := make([]shardResult, len(targets))
	var wg sync.WaitGroup
	for i, b := range targets {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			sum, err := b.QueryStream(ctx, spec, onPlan, deliver)
			results[i] = shardResult{sum, err}
		}(i, b)
	}
	wg.Wait()
	items, first, truncated := d.Delivered() // the merge is over

	responded := 0
	complete := true
	aborted := false
	var shortfalls []string
	for i, res := range results {
		if res.err != nil {
			if truncated || r.Context().Err() != nil {
				// The router canceled the fan-out itself (max-results hit or
				// client gone); the resulting errors are not shard failures.
				continue
			}
			rt.shardErrors.With(targets[i].Name()).Inc()
			fr.Record(tx, telemetry.FlightShardError, "router", targets[i].Name(), 1, res.err.Error())
			rt.logger.Warn("shard failed mid-query", "shard", targets[i].Name(), "tx", tx, "err", res.err)
			shortfalls = append(shortfalls, fmt.Sprintf("%s: %v", targets[i].Name(), res.err))
			complete = false
			continue
		}
		responded++
		if res.sum != nil {
			if !res.sum.Complete {
				complete = false
			}
			if res.sum.Aborted {
				aborted = true
			}
		}
	}
	shortfall := strings.Join(shortfalls, "; ")
	elapsed := time.Since(start)
	finish := func(sumComplete bool) {
		fr.Finish(tx, telemetry.FlightSummary{
			FirstItem: first, Elapsed: elapsed, Items: items,
			Complete: sumComplete, Aborted: aborted,
			NodesContacted: len(targets), NodesResponded: responded,
			Err: shortfall,
		})
	}

	if len(targets) > 0 && responded == 0 && items == 0 && !truncated {
		// Every shard failed before anything streamed: this is a gateway
		// failure, not a partial answer.
		finish(false)
		d.Fail(errors.New("all shards failed: "+shortfall), http.StatusBadGateway)
		return
	}
	d.Finish(wsda.StreamSummary{
		TxID: tx, Complete: complete, Aborted: aborted, Elapsed: elapsed,
		Network: true, NodesContacted: len(targets), NodesResponded: responded,
		Shortfall: shortfall,
	})
	finish(complete && !truncated)
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	backends := rt.Backends()
	shards := make([]map[string]any, len(backends))
	for i, b := range backends {
		shards[i] = map[string]any{"shard": b.Name(), "index": i}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"total": len(backends), "shards": shards})
}

func (rt *Router) handleCutoverHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	peersParam := r.URL.Query().Get("peers")
	if peersParam == "" {
		http.Error(w, "missing peers parameter (comma-separated shard base URLs in new shard order)", http.StatusBadRequest)
		return
	}
	var backends []Backend
	existing := make(map[string]Backend)
	for _, b := range rt.Backends() {
		existing[b.Name()] = b
	}
	for _, p := range strings.Split(peersParam, ",") {
		p = strings.TrimSpace(strings.TrimSuffix(p, "/"))
		if p == "" {
			continue
		}
		if b, ok := existing[p]; ok {
			backends = append(backends, b) // keep the live connection pool
		} else {
			backends = append(backends, rt.cfg.Dial(p))
		}
	}
	if len(backends) == 0 {
		http.Error(w, "peers parameter names no shards", http.StatusBadRequest)
		return
	}
	pruned, err := rt.CutoverTo(r.Context(), backends)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"total": len(backends), "pruned": pruned})
}

func writeXML(w http.ResponseWriter, n *xmldoc.Node) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = io.WriteString(w, n.String())
}
