// Command peerd runs one UPDF peer node: a hyper registry reachable over
// the WSDA HTTP binding (publish/query the local database), wired into a
// P2P network over the PDP HTTP binding, with an embedded originator for
// submitting network-wide queries.
//
// A three-node network on one machine:
//
//	peerd -addr :9001 -name n1 -neighbors http://localhost:9002/pdp,http://localhost:9003/pdp
//	peerd -addr :9002 -name n2 -neighbors http://localhost:9001/pdp,http://localhost:9003/pdp
//	peerd -addr :9003 -name n3 -neighbors http://localhost:9001/pdp,http://localhost:9002/pdp
//
// Publish a service into a node's local registry, then query the network:
//
//	curl -X POST --data @tuple.xml 'http://localhost:9001/wsda/publish'
//	curl -X POST --data 'for $s in //service return $s/@name' \
//	     'http://localhost:9001/netquery?mode=routed&radius=-1'
//
// Observability endpoints (unless -telemetry=false):
//
//	curl http://localhost:9001/metrics            # Prometheus text format
//	curl http://localhost:9001/debug/vars         # JSON metrics snapshot
//	curl http://localhost:9001/debug/traces       # hop trees of recent net queries
//	curl http://localhost:9001/debug/slowlog      # recent slow/incomplete transactions
//	curl http://localhost:9001/debug/query/<tx>   # one transaction's flight recording
//	curl http://localhost:9001/slo                # SLO burn-rate status
//
// Liveness and readiness probes (/healthz, /readyz) are always served.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"wsda/internal/daemon"
	"wsda/internal/pdp"
	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/updf"
	"wsda/internal/wlog"
	"wsda/internal/workload"
	"wsda/internal/wsda"
)

func main() {
	d := daemon.New(flag.CommandLine, daemon.Spec{
		Component: "peerd", Addr: ":9001", Name: "peer",
		ReadTimeout: true,
		Usage: map[string]string{
			"name":      "node name",
			"log-level": "log level, optionally with per-component overrides (e.g. warn,updf=debug)",
		},
	})
	var (
		public    = flag.String("public-url", "", "public base URL (default http://localhost<addr>)")
		neighbors = flag.String("neighbors", "", "comma-separated neighbor PDP base URLs (static wiring)")
		bootstrap = flag.String("bootstrap", "", "comma-separated seed PDP URLs for gossip membership (dynamic wiring)")
		gossip    = flag.Duration("gossip-period", 5*time.Second, "membership gossip round interval")
		advertise = flag.Bool("advertise", true, "publish a node tuple describing this peer into its registry")
		ttl       = flag.Duration("default-ttl", 10*time.Minute, "default tuple lifetime")
		seed      = flag.Int("seed-services", 0, "pre-populate with N synthetic services")

		maxRetries    = flag.Int("max-retries", 0, "retransmissions per forwarded child query (0 disables)")
		retryInterval = flag.Duration("retry-interval", 200*time.Millisecond, "initial child retransmission interval (doubles per retry)")
		breakerThresh = flag.Int("breaker-threshold", 0, "consecutive neighbor failures before its circuit opens (0 disables)")
		breakerCool   = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open neighbor circuit stays open")
		chaosDrop     = flag.Float64("chaos-drop", 0, "probability of silently dropping each outbound PDP message (fault injection)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "RNG seed for -chaos-drop")
	)
	d.Parse(os.Args[1:])
	logger, metrics, flight := d.Log, d.Metrics, d.Flight

	base := *public
	if base == "" {
		base = d.BaseURL()
	}
	pdpAddr := base + "/pdp"

	reg := registry.New(registry.Config{
		Name:       d.Name,
		DefaultTTL: *ttl,
		Metrics:    metrics,
		Flight:     flight,
	})
	if *seed > 0 {
		if err := workload.NewGen(42).Populate(reg, *seed, 24*time.Hour); err != nil {
			d.Fatal("seeding synthetic services failed", "err", err)
		}
		logger.Info("seeded synthetic services", "count", *seed)
	}

	net := pdp.NewHTTPNetwork(nil)
	net.SetFlight(flight)
	var nodeNet pdp.Network = net
	if *chaosDrop > 0 {
		nodeNet = &lossyNetwork{next: net, p: *chaosDrop, rng: rand.New(rand.NewSource(*chaosSeed))}
		logger.Warn("chaos: dropping outbound PDP messages", "probability", *chaosDrop)
	}
	node, err := updf.NewNode(updf.Config{
		Addr:             pdpAddr,
		Net:              nodeNet,
		Registry:         reg,
		Metrics:          metrics,
		Flight:           flight,
		MaxRetries:       *maxRetries,
		RetryInterval:    *retryInterval,
		BreakerThreshold: *breakerThresh,
		BreakerCooldown:  *breakerCool,
	})
	if err != nil {
		d.Fatal("node init failed", "err", err)
	}
	registerNodeStats(metrics, node, reg)
	if *neighbors != "" {
		node.SetNeighbors(strings.Split(*neighbors, ","))
	}
	if *bootstrap != "" {
		if _, err := node.StartMembership(updf.MembershipConfig{
			Seeds:  strings.Split(*bootstrap, ","),
			Period: *gossip,
		}); err != nil {
			d.Fatal("membership start failed", "err", err)
		}
		wlog.WithComponent(logger, "membership").Info("gossip membership running", "period", *gossip)
	}
	if *advertise {
		if err := node.AdvertiseSelf(24 * time.Hour); err != nil {
			d.Fatal("self-advertisement failed", "err", err)
		}
	}
	orig, err := updf.NewOriginator(pdpAddr+"/originator", net, nil)
	if err != nil {
		d.Fatal("originator init failed", "err", err)
	}
	orig.SetTelemetry(metrics)
	orig.SetFlight(flight)
	orig.SetSLO(d.SLO)

	desc := wsda.NewService(d.Name).
		Link(base+wsda.PathPresenter).
		Op(wsda.IfacePresenter, "getServiceDescription", base+wsda.PathPresenter).
		Op(wsda.IfaceConsumer, "publish", base+wsda.PathPublish).
		Op(wsda.IfaceMinQuery, "minQuery", base+wsda.PathMinQuery).
		Op(wsda.IfaceXQuery, "query", base+wsda.PathXQuery).
		Op("PDP", "message", pdpAddr).
		Build()

	mux := d.Mux
	mux.Handle("/wsda/", wsda.HandlerWithObservability(&wsda.LocalNode{Desc: desc, Registry: reg}, metrics, flight))
	mux.Handle("/pdp", net.Handler())
	mux.Handle("/pdp/", net.Handler())
	mux.Handle(wsda.PathNetQuery, updf.NetQueryHandler(orig, pdpAddr, metrics, flight))
	mux.HandleFunc("/neighbors", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, strings.Join(node.Neighbors(), "\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := node.Stats()
		fmt.Fprintf(w, "tuples=%d queries=%d duplicates=%d dropped-expired=%d evals=%d eval-errors=%d forwards=%d aborts=%d late=%d retries=%d breaker-opens=%d breaker-skips=%d state-table=%d\n",
			reg.Len(), st.QueriesSeen, st.Duplicates, st.DroppedExpired, st.Evals,
			st.EvalErrors, st.Forwards, st.Aborts, st.LateMessages,
			st.Retries, st.BreakerOpens, st.BreakerSkips, node.StateTableSize())
	})

	logger.Info("peer serving WSDA+PDP", "name", d.Name, "addr", d.Addr,
		"public", base, "neighbors", len(node.Neighbors()))
	// A peer owns its own tuple set, so it is ready as soon as the node and
	// originator are registered on the transport — which has already
	// happened by the time the mux serves.
	d.Serve(nil)
}

// registerNodeStats exports the P2P node's cumulative counters through the
// metrics registry, reading the existing Stats() atomics at exposition
// time so the hot path pays nothing extra.
func registerNodeStats(m *telemetry.Metrics, node *updf.Node, reg *registry.Registry) {
	if m == nil {
		return
	}
	stat := func(pick func(updf.Stats) int64) func() int64 {
		return func() int64 { return pick(node.Stats()) }
	}
	m.CounterFunc("wsda_updf_queries_seen_total", "Query messages received.",
		stat(func(s updf.Stats) int64 { return s.QueriesSeen }))
	m.CounterFunc("wsda_updf_duplicates_total", "Duplicate queries suppressed by loop detection.",
		stat(func(s updf.Stats) int64 { return s.Duplicates }))
	m.CounterFunc("wsda_updf_dropped_expired_total", "Queries dropped past their abort deadline.",
		stat(func(s updf.Stats) int64 { return s.DroppedExpired }))
	m.CounterFunc("wsda_updf_evals_total", "Local query evaluations.",
		stat(func(s updf.Stats) int64 { return s.Evals }))
	m.CounterFunc("wsda_updf_eval_errors_total", "Local evaluations that failed.",
		stat(func(s updf.Stats) int64 { return s.EvalErrors }))
	m.CounterFunc("wsda_updf_forwards_total", "Queries forwarded to neighbors.",
		stat(func(s updf.Stats) int64 { return s.Forwards }))
	m.CounterFunc("wsda_updf_aborts_total", "Transactions aborted by timeout.",
		stat(func(s updf.Stats) int64 { return s.Aborts }))
	m.CounterFunc("wsda_updf_late_messages_total", "Messages for already-closed transactions.",
		stat(func(s updf.Stats) int64 { return s.LateMessages }))
	m.CounterFunc("wsda_updf_retries_total", "Child-query retransmissions sent.",
		stat(func(s updf.Stats) int64 { return s.Retries }))
	m.CounterFunc("wsda_updf_breaker_opens_total", "Neighbor circuit-breaker open transitions.",
		stat(func(s updf.Stats) int64 { return s.BreakerOpens }))
	m.CounterFunc("wsda_updf_breaker_skips_total", "Neighbors skipped because their circuit was open.",
		stat(func(s updf.Stats) int64 { return s.BreakerSkips }))
	m.GaugeFunc("wsda_updf_state_table_size", "Live per-transaction soft-state entries.",
		func() float64 { return float64(node.StateTableSize()) })
	m.GaugeFunc("wsda_registry_live_tuples", "Live tuples in the local registry.",
		func() float64 { return float64(reg.Len()) })
}

// lossyNetwork is the -chaos-drop fault injector: it silently discards a
// random fraction of outbound messages before they reach the transport,
// emulating a lossy WAN so retry/breaker settings can be rehearsed against
// a real deployment.
type lossyNetwork struct {
	next pdp.Network
	p    float64
	mu   sync.Mutex
	rng  *rand.Rand
}

func (l *lossyNetwork) Register(addr string, h pdp.Handler) error { return l.next.Register(addr, h) }
func (l *lossyNetwork) Unregister(addr string)                    { l.next.Unregister(addr) }

func (l *lossyNetwork) Send(msg *pdp.Message) error {
	l.mu.Lock()
	drop := l.rng.Float64() < l.p
	l.mu.Unlock()
	if drop {
		return nil
	}
	return l.next.Send(msg)
}
