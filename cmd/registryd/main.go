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
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/daemon"
	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/softstate"
	"wsda/internal/telemetry"
	"wsda/internal/wlog"
	"wsda/internal/workload"
	"wsda/internal/wsda"
)

func main() {
	d := daemon.New(flag.CommandLine, daemon.Spec{
		Component: "registryd", Addr: ":8080", Name: "hyper-registry",
		Traces: true, ReadTimeout: true, TenantEdge: true,
		Usage: map[string]string{
			"name":       "registry name",
			"log-level":  "log level, optionally with per-component overrides (e.g. warn,replica=debug)",
			"peer-token": "bearer token this node presents to its -replica-of primary and -shard-bootstrap sources when they run behind a tenant gate",
		},
	})
	var (
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
	)
	flag.DurationVar(&d.SLOStaleness, "slo-staleness", telemetry.DefaultStalenessTarget, "replica staleness target for the SLO engine")
	d.Parse(os.Args[1:])
	logger, metrics, flight, slo := d.Log, d.Metrics, d.Flight, d.SLO

	reg := registry.New(registry.Config{
		Name:          d.Name,
		DefaultTTL:    *ttl,
		MinTTL:        *minTTL,
		MaxTTL:        *maxTTL,
		MaxQuerySteps: *maxWork,
		JournalCap:    *journalCap,
		Metrics:       metrics,
		Tracer:        d.Tracer,
		Flight:        flight,
		NoPlanner:     *noPlanner,
	})
	registerRegistryStats(metrics, reg)
	if *seed > 0 {
		if *replicaOf != "" {
			d.Fatal("-seed-services conflicts with -replica-of: a replica's tuple set is owned by its primary")
		}
		if err := workload.NewGen(42).Populate(reg, *seed, *maxTTL); err != nil {
			d.Fatal("seeding synthetic services failed", "err", err)
		}
		logger.Info("seeded synthetic services", "count", *seed)
	}

	// Feed and bootstrap requests outlive the long-poll they ask for.
	peerHTTP := d.PeerClient(*longPoll + 15*time.Second)

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

	base := d.BaseURL()
	b := wsda.NewService(d.Name).
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
			d.Fatal("-shard-of conflicts with -replica-of: a shard owns its slice, a replica owns nothing")
		}
		asgn, err := shard.ParseAssignment(*shardOf)
		if err != nil {
			d.Fatal("bad -shard-of", "err", err)
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
		d.Fatal("-shard-bootstrap requires -shard-of")
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

	mux := d.Mux
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

	logger.Info("hyper registry serving WSDA", "name", d.Name, "addr", d.Addr)
	d.Serve(func() string {
		switch {
		case rep != nil && !rep.Ready():
			// A primary is ready as soon as it serves; a replica only once
			// its snapshot bootstrap has landed — and it goes not-ready again
			// while a primary loss forces a re-bootstrap.
			return "replica bootstrapping"
		case member != nil && !member.Ready():
			// A joining shard is ready only once every bootstrap tail has
			// its snapshot applied and is live on the feed.
			return "shard bootstrapping"
		}
		return ""
	})
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
