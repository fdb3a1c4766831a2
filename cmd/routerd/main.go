// Command routerd runs the scatter-gather router tier of a sharded hyper
// registry. The router owns no tuples: it accepts the full WSDA HTTP
// surface plus /netquery, routes each publish/unpublish to the shard
// owning the key (rendezvous hash of the content link), and fans queries
// out across the shards with a streamed merge — items flush to the client
// as soon as the first shard responds, and the trailing <summary>
// aggregates completeness and fan-out accounting across shards.
//
// Usage:
//
//	routerd -addr :8090 -peers http://shard0:8080,http://shard1:8081
//
// The peer list order IS the partition map: peers[i] serves shard i/N.
// Rebalancing to a new map (e.g. after a new shard bootstrapped via
// registryd -shard-of/-shard-bootstrap) is one call:
//
//	curl -X POST 'http://localhost:8090/router/cutover?peers=http://shard0:8080,http://shard1:8081,http://shard2:8082'
//
// Aggregate health: /healthz and /readyz answer 200 only when every shard
// passes its probe, 503 with a per-shard JSON body (naming each failing
// shard as bootstrapping or unreachable) otherwise. /router/status shows
// the current map.
//
// Observability mirrors registryd: /metrics, /debug/vars, /debug/slowlog,
// /debug/query/<tx> (the router mints one transaction ID per query and
// forwards it to every shard, so the same tx is explainable on each hop),
// and /slo.
//
// With -tenants=FILE the router becomes the multi-tenant edge: bearer
// auth, per-tenant quotas and priority load shedding apply in front of
// the whole routed surface (see OPERATIONS.md §7), with /healthz,
// /readyz, /metrics and /slo bypassed for probes and scrapers. When the
// shards themselves are gated, -peer-token is the token the router
// presents to them.
package main

import (
	"flag"
	"os"
	"strings"
	"time"

	"wsda/internal/daemon"
	"wsda/internal/shard"
	"wsda/internal/wlog"
	"wsda/internal/wsda"
)

func main() {
	d := daemon.New(flag.CommandLine, daemon.Spec{
		Component: "routerd", Addr: ":8090", Name: "wsda-router",
		TenantEdge: true, OwnProbes: true,
		Usage: map[string]string{
			"name":       "router service name",
			"telemetry":  "collect metrics, serve /metrics and /debug endpoints",
			"log-format": "log output format: text or json",
			"peer-token": "bearer token the router presents to shards that run behind their own tenant gate",
		},
	})
	var (
		peers = flag.String("peers", "", "comma-separated shard base URLs in shard order (peers[i] serves shard i/N)")

		peerTimeout   = flag.Duration("peer-timeout", 30*time.Second, "per-shard HTTP client timeout for writes and probes (streamed queries are bounded by the client, not this)")
		healthTimeout = flag.Duration("health-timeout", 2*time.Second, "per-shard health/readiness probe budget")
	)
	d.Parse(os.Args[1:])
	logger := d.Log

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(strings.TrimSuffix(p, "/")); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) == 0 {
		logger.Error("-peers is required: a router with no shards can serve nothing")
		os.Exit(2)
	}

	base := d.BaseURL()
	desc := wsda.NewService(d.Name).
		Owner("wsda").
		Link(base+wsda.PathPresenter).
		Op(wsda.IfacePresenter, "getServiceDescription", base+wsda.PathPresenter).
		Op(wsda.IfaceConsumer, "publish", base+wsda.PathPublish).
		Op(wsda.IfaceConsumer, "unpublish", base+wsda.PathUnpublish).
		Op(wsda.IfaceMinQuery, "minQuery", base+wsda.PathMinQuery).
		Op(wsda.IfaceXQuery, "query", base+wsda.PathXQuery).
		Build()

	hc := d.PeerClient(*peerTimeout)
	dial := func(base string) shard.Backend { return shard.NewHTTPBackend(base, hc) }
	backends := make([]shard.Backend, len(peerList))
	for i, p := range peerList {
		backends[i] = dial(p)
	}
	router := shard.NewRouter(shard.Config{
		Backends:      backends,
		Desc:          desc,
		Metrics:       d.Metrics,
		Flight:        d.Flight,
		Logger:        wlog.WithComponent(logger, "router"),
		Dial:          dial,
		HealthTimeout: *healthTimeout,
	})

	// The router's handler answers /healthz and /readyz itself, aggregated
	// over the shards (Spec.OwnProbes); with -tenants the kit's gate makes
	// the router the multi-tenant edge in front of the whole routed surface.
	d.Mux.Handle("/", router.Handler())

	logger.Info("router serving sharded WSDA", "name", d.Name, "addr", d.Addr, "shards", len(peerList), "map", strings.Join(peerList, ","))
	d.Serve(nil)
}
