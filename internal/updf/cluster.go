package updf

import (
	"fmt"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/topology"
)

// Cluster is a set of UPDF nodes wired along a topology graph — the unit
// the experiments and examples operate on.
type Cluster struct {
	Nodes []*Node         // one node per graph vertex, index-aligned
	Graph *topology.Graph // the wiring the neighbor sets follow
}

// ClusterConfig configures BuildCluster.
type ClusterConfig struct {
	// Net is the shared transport every node registers on.
	Net pdp.Network
	// AddrFor names node i; nil means "node/<i>".
	AddrFor func(i int) string
	// RegistryFor supplies node i's local database; nil creates an empty
	// registry named after the node.
	RegistryFor func(i int) *registry.Registry
	// Now is the shared clock.
	Now func() time.Time
	// DefaultStateTTL is passed through to each node.
	DefaultStateTTL time.Duration
	// AbortPolicy is passed through to each node.
	AbortPolicy string
	// AbortFloor is passed through to each node.
	AbortFloor time.Duration
	// MaxRetries is passed through to each node (child-query
	// retransmission budget; 0 disables).
	MaxRetries int
	// RetryInterval is passed through to each node.
	RetryInterval time.Duration
	// BreakerThreshold is passed through to each node (per-neighbor
	// circuit breaker; 0 disables).
	BreakerThreshold int
	// BreakerCooldown is passed through to each node.
	BreakerCooldown time.Duration
	// Metrics, when set, instruments every node (see Config.Metrics).
	Metrics *telemetry.Metrics
	// Flight, when set, records per-transaction lifecycle events on every
	// node (see Config.Flight).
	Flight *telemetry.FlightRecorder
}

// BuildCluster creates one node per graph vertex and wires neighbor sets
// from the edges.
func BuildCluster(g *topology.Graph, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("updf: cluster needs a network")
	}
	addrFor := cfg.AddrFor
	if addrFor == nil {
		addrFor = func(i int) string { return fmt.Sprintf("node/%d", i) }
	}
	regFor := cfg.RegistryFor
	if regFor == nil {
		regFor = func(i int) *registry.Registry {
			return registry.New(registry.Config{Name: addrFor(i), Now: cfg.Now})
		}
	}
	c := &Cluster{Graph: g, Nodes: make([]*Node, g.N())}
	for i := 0; i < g.N(); i++ {
		n, err := NewNode(Config{
			Addr:             addrFor(i),
			Net:              cfg.Net,
			Registry:         regFor(i),
			Now:              cfg.Now,
			DefaultStateTTL:  cfg.DefaultStateTTL,
			AbortPolicy:      cfg.AbortPolicy,
			AbortFloor:       cfg.AbortFloor,
			MaxRetries:       cfg.MaxRetries,
			RetryInterval:    cfg.RetryInterval,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
			Metrics:          cfg.Metrics,
			Flight:           cfg.Flight,
			Seed:             int64(i + 1),
		})
		if err != nil {
			for _, m := range c.Nodes {
				if m != nil {
					m.Close()
				}
			}
			return nil, err
		}
		c.Nodes[i] = n
	}
	for i := 0; i < g.N(); i++ {
		nbs := g.Neighbors(i)
		addrs := make([]string, len(nbs))
		for j, nb := range nbs {
			addrs[j] = addrFor(nb)
		}
		c.Nodes[i].SetNeighbors(addrs)
	}
	return c, nil
}

// Close unregisters every node.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.Close()
	}
}

// TotalStats sums the node counters across the cluster.
func (c *Cluster) TotalStats() Stats {
	var s Stats
	for _, n := range c.Nodes {
		ns := n.Stats()
		s.QueriesSeen += ns.QueriesSeen
		s.Duplicates += ns.Duplicates
		s.DroppedExpired += ns.DroppedExpired
		s.Evals += ns.Evals
		s.EvalErrors += ns.EvalErrors
		s.Forwards += ns.Forwards
		s.Aborts += ns.Aborts
		s.LateMessages += ns.LateMessages
		s.Retries += ns.Retries
		s.BreakerOpens += ns.BreakerOpens
		s.BreakerSkips += ns.BreakerSkips
	}
	return s
}
