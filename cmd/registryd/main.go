// Command registryd runs a standalone hyper registry node serving the WSDA
// HTTP protocol binding: Presenter, Consumer (publish/unpublish), MinQuery
// and XQuery endpoints.
//
// Usage:
//
//	registryd -addr :8080 -name registry.cern.ch [-seed-services 100]
//
// Any node also serves a change feed (/wsda/feed, /wsda/snapshot); a second
// node started with -replica-of becomes a read-only replica that bootstraps
// from the primary's snapshot, tails its feed, and survives primary
// restarts:
//
//	registryd -addr :8081 -name replica-1 -replica-of http://localhost:8080
//
// With -shard-of=K/N the node serves one partition of a sharded tuple
// space behind a routerd: publishes for keys outside its slice are
// rejected with 421, and -shard-bootstrap pulls the slice from the old
// owners' change feeds when the shard joins an existing deployment (the
// router's POST /router/cutover completes the rebalance):
//
//	registryd -addr :8082 -name shard-2 -shard-of 2/3 \
//	  -shard-bootstrap http://localhost:8080,http://localhost:8081
//
// With -seed-services the registry is pre-populated with a synthetic Grid
// service population, which makes the query endpoints interesting to poke
// at immediately:
//
//	curl http://localhost:8080/wsda/presenter
//	curl 'http://localhost:8080/wsda/minquery?type=service'
//	curl -X POST --data 'count(/tupleset/tuple)' http://localhost:8080/wsda/xquery
//
// With -tenants=FILE the whole WSDA surface (including the change feed)
// requires a bearer token from the tenants file, per-tenant token-bucket
// and concurrency quotas apply, and saturating load is shed by priority
// (429 + Retry-After; see OPERATIONS.md §7). Probes and scrapers —
// /healthz, /readyz, /metrics, /slo — always bypass the gate. A replica
// or joining shard of a gated node authenticates with -peer-token:
//
//	registryd -addr :8080 -tenants tenants.conf
//	registryd -addr :8081 -replica-of http://localhost:8080 -peer-token SECRET
//
// Observability endpoints (unless -telemetry=false):
//
//	curl http://localhost:8080/metrics            # Prometheus text format
//	curl http://localhost:8080/debug/vars         # JSON metrics snapshot
//	curl http://localhost:8080/debug/traces       # recent query span trees
//	curl http://localhost:8080/debug/slowlog      # recent slow/incomplete requests
//	curl http://localhost:8080/debug/query/<tx>   # one transaction's flight recording
//	curl http://localhost:8080/slo                # SLO burn-rate status
//
// Liveness and readiness probes are always served: /healthz answers 200
// while the process runs; /readyz answers 200 once the node can serve
// reads — immediately for a primary, after the snapshot bootstrap for a
// replica (and it flips back to 503 while a primary loss forces a
// re-bootstrap).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/softstate"
	"wsda/internal/telemetry"
	"wsda/internal/tenant"
	"wsda/internal/wlog"
	"wsda/internal/workload"
	"wsda/internal/wsda"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		name    = flag.String("name", "hyper-registry", "registry name")
		ttl     = flag.Duration("default-ttl", 10*time.Minute, "default tuple lifetime")
		maxTTL  = flag.Duration("max-ttl", 24*time.Hour, "maximum granted lifetime")
		minTTL  = flag.Duration("min-ttl", time.Second, "minimum granted lifetime")
		sweep   = flag.Duration("sweep", 30*time.Second, "expired-tuple sweep interval")
		seed    = flag.Int("seed-services", 0, "pre-populate with N synthetic services")
		maxWork = flag.Int("max-query-steps", 10_000_000, "per-query evaluation step budget (0 = unlimited)")

		noPlanner = flag.Bool("no-planner", false, "disable the discovery-query pushdown planner; every query takes the interpreted view path")

		replicaOf  = flag.String("replica-of", "", "run as a read-only replica tailing this primary's change feed (base URL, e.g. http://primary:8080)")
		journalCap = flag.Int("journal-cap", softstate.DefaultJournalCap, "change-journal capacity; feeds and views resync past it")
		longPoll   = flag.Duration("replica-long-poll", 20*time.Second, "long-poll wait the replica requests from its primary's feed")

		shardOf        = flag.String("shard-of", "", "serve one partition of a sharded tuple space, as K/N (e.g. 2/4); publishes for keys outside the slice are rejected with 421")
		shardBootstrap = flag.String("shard-bootstrap", "", "comma-separated base URLs of the old owners (in old-map shard order) to bootstrap this shard's key range from over their change feeds")

		tenantsFile = flag.String("tenants", "", "enable the multi-tenant gate: bearer auth, quotas and load shedding from this tenants file (see OPERATIONS.md §7)")
		admitMax    = flag.Int("admit-max", tenant.DefaultCapacity, "global in-flight admission slots behind -tenants; browse work sheds at 50%, queries at 90%")
		peerToken   = flag.String("peer-token", "", "bearer token this node presents to its -replica-of primary and -shard-bootstrap sources when they run behind a tenant gate")

		telemetryOn = flag.Bool("telemetry", true, "collect metrics and traces, serve /metrics and /debug endpoints")
		traceCap    = flag.Int("trace-capacity", telemetry.DefaultTraceCapacity, "completed spans retained for /debug/traces")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")

		logLevel  = flag.String("log-level", "info", "log level, optionally with per-component overrides (e.g. warn,replica=debug)")
		logFormat = flag.String("log-format", "text", "log output format: text (human-readable) or json")

		sloFirstItem    = flag.Duration("slo-first-item", telemetry.DefaultFirstItemTarget, "first-item latency target fed to the SLO engine and the slowlog gate")
		sloCompleteness = flag.Float64("slo-completeness", telemetry.DefaultCompletenessTarget, "completeness-ratio target for the SLO engine")
		sloStaleness    = flag.Duration("slo-staleness", telemetry.DefaultStalenessTarget, "replica staleness target for the SLO engine")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout")
		shutdownGrace     = flag.Duration("shutdown-grace", 5*time.Second, "graceful shutdown deadline on SIGINT/SIGTERM")
	)
	flag.Parse()

	logger, err := wlog.New(wlog.Config{Level: *logLevel, Format: *logFormat})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger = wlog.WithComponent(logger, "registryd")

	var metrics *telemetry.Metrics
	var tracer *telemetry.Tracer
	var flight *telemetry.FlightRecorder
	var slo *telemetry.SLO
	if *telemetryOn {
		metrics = telemetry.NewMetrics()
		tracer = telemetry.NewTracer(*traceCap)
		flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{SlowThreshold: *sloFirstItem})
		slo = telemetry.NewSLO(telemetry.SLOConfig{
			FirstItemTarget:    *sloFirstItem,
			CompletenessTarget: *sloCompleteness,
			StalenessTarget:    *sloStaleness,
		})
		slo.RegisterMetrics(metrics)
	}

	reg := registry.New(registry.Config{
		Name:          *name,
		DefaultTTL:    *ttl,
		MinTTL:        *minTTL,
		MaxTTL:        *maxTTL,
		MaxQuerySteps: *maxWork,
		JournalCap:    *journalCap,
		Metrics:       metrics,
		Tracer:        tracer,
		Flight:        flight,
		NoPlanner:     *noPlanner,
	})
	registerRegistryStats(metrics, reg)
	if *seed > 0 {
		if *replicaOf != "" {
			logger.Error("-seed-services conflicts with -replica-of: a replica's tuple set is owned by its primary")
			os.Exit(1)
		}
		if err := workload.NewGen(42).Populate(reg, *seed, *maxTTL); err != nil {
			logger.Error("seeding synthetic services failed", "err", err)
			os.Exit(1)
		}
		logger.Info("seeded synthetic services", "count", *seed)
	}

	// Outbound feed/bootstrap requests authenticate with -peer-token when
	// the upstream runs behind a tenant gate (nil client = changefeed's
	// own long-poll-sized default, so only build one when a token exists).
	var peerHTTP *http.Client
	if *peerToken != "" {
		peerHTTP = tenant.WithToken(&http.Client{Timeout: *longPoll + 15*time.Second}, *peerToken)
	}

	replCtx, stopRepl := context.WithCancel(context.Background())
	defer stopRepl()
	var rep *changefeed.Replica
	if *replicaOf != "" {
		rep = changefeed.New(changefeed.Config{
			Primary:      *replicaOf,
			Registry:     reg,
			LongPollWait: *longPoll,
			HTTP:         peerHTTP,
			Metrics:      metrics,
			Log:          wlog.WithComponent(logger, "replica"),
		})
		go rep.Run(replCtx) //nolint:errcheck
		wlog.WithComponent(logger, "replica").Info("replicating from primary",
			"primary", *replicaOf, "long-poll", *longPoll)
	}

	base := "http://" + hostAddr(*addr)
	b := wsda.NewService(*name).
		Owner("wsda").
		Link(base+wsda.PathPresenter).
		Op(wsda.IfacePresenter, "getServiceDescription", base+wsda.PathPresenter).
		Op(wsda.IfaceMinQuery, "minQuery", base+wsda.PathMinQuery).
		Op(wsda.IfaceXQuery, "query", base+wsda.PathXQuery)
	if *replicaOf == "" {
		// Replicas don't advertise the Consumer primitives they reject.
		b = b.Op(wsda.IfaceConsumer, "publish", base+wsda.PathPublish).
			Op(wsda.IfaceConsumer, "unpublish", base+wsda.PathUnpublish)
	}
	desc := b.Build()

	var node wsda.Node = &wsda.LocalNode{Desc: desc, Registry: reg}
	if *replicaOf != "" {
		node = wsda.ReadOnlyNode{Node: node}
	}

	// A shard member guards writes with its assignment and, when joining an
	// existing deployment, bootstraps its key range from the old owners.
	var member *shard.Member
	if *shardOf != "" {
		if *replicaOf != "" {
			logger.Error("-shard-of conflicts with -replica-of: a shard owns its slice, a replica owns nothing")
			os.Exit(1)
		}
		asgn, err := shard.ParseAssignment(*shardOf)
		if err != nil {
			logger.Error("bad -shard-of", "err", err)
			os.Exit(1)
		}
		member = shard.NewMember(reg, asgn, metrics, wlog.WithComponent(logger, "shard"))
		node = member.Guard(node)
		if *shardBootstrap != "" {
			var sources []string
			for _, s := range strings.Split(*shardBootstrap, ",") {
				if s = strings.TrimSpace(s); s != "" {
					sources = append(sources, s)
				}
			}
			member.StartBootstrap(replCtx, sources, *longPoll, peerHTTP)
			logger.Info("shard bootstrapping its key range", "shard", asgn.String(), "sources", len(sources))
		}
		logger.Info("serving one shard of the tuple space", "shard", asgn.String())
	} else if *shardBootstrap != "" {
		logger.Error("-shard-bootstrap requires -shard-of")
		os.Exit(1)
	}

	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(*sweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if n := reg.Sweep(); n > 0 {
					logger.Debug("swept expired tuples", "swept", n, "live", reg.Len())
				}
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	// Feed replica lag into the staleness objective so /slo and the burn
	// metrics see how far behind the primary this node is reading.
	if rep != nil && slo != nil {
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if rep.Ready() {
						slo.ObserveStaleness(rep.Staleness())
					}
				case <-stop:
					return
				}
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/wsda/", sloEdge(wsda.HandlerWithObservability(node, metrics, flight), slo, flight))
	// Every node — primary or replica — serves the change feed, so replicas
	// can themselves be replicated (chained fan-out), and a joining shard
	// can bootstrap its slice from this node.
	changefeed.NewServer(reg).Mount(mux)
	if member != nil {
		member.Mount(mux)
	}
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := reg.Stats()
		fmt.Fprintf(w, "live=%d publishes=%d refreshes=%d expirations=%d queries=%d minqueries=%d cache-hits=%d cache-misses=%d pulls=%d pull-errors=%d throttled=%d view-hits=%d view-misses=%d view-rebuilds=%d\n",
			reg.Len(), st.Publishes, st.Refreshes, st.Expirations, st.Queries,
			st.MinQueries, st.CacheHits, st.CacheMisses, st.Pulls, st.PullErrors, st.Throttled,
			st.ViewHits, st.ViewMisses, st.ViewRebuilds)
	})
	if *telemetryOn {
		telemetry.Mount(mux, metrics, tracer)
		telemetry.MountObservability(mux, flight, slo)
	}
	if *pprofOn {
		mountPprof(mux)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// A primary is ready as soon as it serves; a replica only once its
		// snapshot bootstrap has landed — and it goes not-ready again while
		// a primary loss forces a re-bootstrap.
		if rep != nil && !rep.Ready() {
			http.Error(w, "replica bootstrapping", http.StatusServiceUnavailable)
			return
		}
		// A joining shard is ready only once every bootstrap tail has its
		// snapshot applied and is live on the feed.
		if member != nil && !member.Ready() {
			http.Error(w, "shard bootstrapping", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})

	// The tenant gate wraps the whole mux — the full WSDA surface plus
	// the change feed and debug endpoints — so nothing is reachable
	// without a token except the bypassed probe/scrape paths.
	handler := http.Handler(mux)
	if *tenantsFile != "" {
		set, err := tenant.LoadFile(*tenantsFile)
		if err != nil {
			logger.Error("loading -tenants failed", "err", err)
			os.Exit(1)
		}
		handler = tenant.NewGate(tenant.Config{
			Set:      set,
			Capacity: *admitMax,
			Node:     *name,
			Metrics:  metrics,
			Flight:   flight,
			Log:      wlog.WithComponent(logger, "tenant"),
		}).Wrap(mux)
		logger.Info("multi-tenant gate enabled", "tenants", set.Len(), "admit-max", *admitMax)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	logger.Info("hyper registry serving WSDA", "name", *name, "addr", *addr)
	if err := serveUntilSignal(srv, *shutdownGrace, logger); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
	logFinalSnapshot(metrics, logger)
}

// sloEdge wraps the WSDA protocol handler so every request feeds the
// first-item latency objective, and requests that outlast the slowlog
// threshold are recorded as single-node flight summaries — giving a
// standalone registry the same slowlog triage surface a peer has.
func sloEdge(next http.Handler, slo *telemetry.SLO, fr *telemetry.FlightRecorder) http.Handler {
	if slo == nil && fr == nil {
		return next
	}
	var seq uint64
	var seqMu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start)
		slo.ObserveFirstItem(elapsed)
		slo.ObserveCompleteness(1)
		if fr != nil && elapsed > fr.SlowThreshold() {
			seqMu.Lock()
			seq++
			tx := "http#" + strconv.FormatUint(seq, 10)
			seqMu.Unlock()
			fr.Record(tx, telemetry.FlightReceived, r.URL.Path, r.RemoteAddr, 0, r.Method)
			fr.Finish(tx, telemetry.FlightSummary{
				FirstItem: elapsed,
				Elapsed:   elapsed,
				Complete:  true,
			})
		}
	})
}

// registerRegistryStats exports the registry's cumulative counters and
// live-tuple count through the metrics registry without double
// accounting: values are read from the existing Stats() atomics at
// exposition time.
func registerRegistryStats(m *telemetry.Metrics, reg *registry.Registry) {
	if m == nil {
		return
	}
	stat := func(pick func(registry.Stats) int64) func() int64 {
		return func() int64 { return pick(reg.Stats()) }
	}
	m.CounterFunc("wsda_registry_publishes_total", "First-time tuple publications.",
		stat(func(s registry.Stats) int64 { return s.Publishes }))
	m.CounterFunc("wsda_registry_refreshes_total", "Soft-state refreshes.",
		stat(func(s registry.Stats) int64 { return s.Refreshes }))
	m.CounterFunc("wsda_registry_expirations_total", "Tuples swept after expiry.",
		stat(func(s registry.Stats) int64 { return s.Expirations }))
	m.CounterFunc("wsda_registry_xqueries_total", "XQuery evaluations.",
		stat(func(s registry.Stats) int64 { return s.Queries }))
	m.CounterFunc("wsda_registry_minqueries_total", "Minimal-interface queries.",
		stat(func(s registry.Stats) int64 { return s.MinQueries }))
	m.CounterFunc("wsda_registry_cache_hits_total", "Queries served from fresh cached content.",
		stat(func(s registry.Stats) int64 { return s.CacheHits }))
	m.CounterFunc("wsda_registry_cache_misses_total", "Tuples needing a pull at query time.",
		stat(func(s registry.Stats) int64 { return s.CacheMisses }))
	m.CounterFunc("wsda_registry_pulls_total", "Successful content pulls.",
		stat(func(s registry.Stats) int64 { return s.Pulls }))
	m.CounterFunc("wsda_registry_pull_errors_total", "Failed content pulls.",
		stat(func(s registry.Stats) int64 { return s.PullErrors }))
	m.CounterFunc("wsda_registry_throttled_total", "Pulls suppressed by MinPullInterval.",
		stat(func(s registry.Stats) int64 { return s.Throttled }))
	m.CounterFunc("wsda_registry_view_hits_total", "Interpreted queries that pinned an already-current tuple-set snapshot.",
		stat(func(s registry.Stats) int64 { return s.ViewHits }))
	m.CounterFunc("wsda_registry_view_misses_total", "Interpreted queries that found their tuple-set snapshot behind the store.",
		stat(func(s registry.Stats) int64 { return s.ViewMisses }))
	m.CounterFunc("wsda_registry_view_rebuilds_total", "Tuple-set snapshot advances, from the journal or in full.",
		stat(func(s registry.Stats) int64 { return s.ViewRebuilds }))
	m.GaugeFunc("wsda_registry_live_tuples", "Live tuples in the registry.",
		func() float64 { return float64(reg.Len()) })
}

// mountPprof exposes the standard net/http/pprof handlers on the custom
// mux (the package's init only registers on http.DefaultServeMux).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveUntilSignal runs the server until it fails or a SIGINT/SIGTERM
// arrives, then drains connections within the grace period.
func serveUntilSignal(srv *http.Server, grace time.Duration, logger *slog.Logger) error {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		logger.Info("signal received, draining connections", "grace", grace)
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), grace)
		defer cancelShutdown()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		return nil
	}
}

// logFinalSnapshot writes the closing metrics snapshot so a scrape gap at
// shutdown loses nothing.
func logFinalSnapshot(m *telemetry.Metrics, logger *slog.Logger) {
	if m == nil {
		return
	}
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		return
	}
	logger.Info("final metrics snapshot", "snapshot", string(data))
}

func hostAddr(addr string) string {
	if len(addr) > 0 && addr[0] == ':' {
		return "localhost" + addr
	}
	return addr
}
