package updf

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/simnet"
	"wsda/internal/telemetry"
	"wsda/internal/topology"
)

// finalTap records, per (tx, node), the first accounting final a node sends
// upstream — the PDP message a residency's span must agree with. It sits in
// front of the network, so it sees finals the network later drops.
type finalTap struct {
	pdp.Network
	mu     sync.Mutex
	finals map[string]*pdp.Message
}

func (f *finalTap) Send(m *pdp.Message) error {
	if m.Final && m.NodesContacted > 0 && (m.Kind == pdp.KindResult || m.Kind == pdp.KindReceipt) {
		f.mu.Lock()
		if _, ok := f.finals[m.TxID+" "+m.From]; !ok {
			f.finals[m.TxID+" "+m.From] = m
		}
		f.mu.Unlock()
	}
	return f.Network.Send(m)
}

func (f *finalTap) final(tx, node string) *pdp.Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.finals[tx+" "+node]
}

// settle waits until tx's flight stops growing: subtrees a node gave up on
// may still be finishing after the originator has its answer.
func settle(fr *telemetry.FlightRecorder, tx string) *telemetry.FlightInfo {
	info, n := fr.Tx(tx), -1
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		if info != nil && len(info.Events) == n {
			break
		}
		n = len(info.Events)
		time.Sleep(30 * time.Millisecond)
		info = fr.Tx(tx)
	}
	return info
}

// TestHopTreeFromFlightGenerated runs seeded submissions over generated
// topologies — line, ring, tree and random, 3 to 16 nodes — in routed,
// direct and pipelined routed mode, with and without dropped messages, and
// checks every hop tree rebuilt from the flight against what the network
// did: one submit root, one residency per node that received the query,
// parented at its first sender's, finalized residencies agreeing with the
// PDP final they sent, no negative duration, and relayed results counted
// on the relaying residency.
func TestHopTreeFromFlightGenerated(t *testing.T) {
	const cases = 32
	for seed := int64(1); seed <= cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(14)
		var g *topology.Graph
		shape := []string{"line", "ring", "tree", "random"}[rng.Intn(4)]
		switch shape {
		case "line":
			g = topology.Line(n)
		case "ring":
			g = topology.Ring(n)
		case "tree":
			g = topology.Tree(n, 2+rng.Intn(2))
		default:
			g = topology.Random(n, 3, seed)
		}
		mode, pipeline := pdp.Routed, false
		switch rng.Intn(3) {
		case 1:
			mode = pdp.Direct
		case 2:
			pipeline = true
		}
		dropP := []float64{0, 0, 0.1}[rng.Intn(3)]
		name := fmt.Sprintf("seed%d/%s%d/%s/pipeline=%v/drop=%v", seed, shape, n, mode, pipeline, dropP)
		t.Run(name, func(t *testing.T) {
			checkHopTree(t, g, mode, pipeline, dropP, seed)
		})
	}
}

func checkHopTree(t *testing.T, g *topology.Graph, mode pdp.ResponseMode, pipeline bool, dropP float64, seed int64) {
	var dropMu sync.Mutex
	dropRng := rand.New(rand.NewSource(seed))
	inner := simnet.New(simnet.Config{Drop: func(m *pdp.Message) bool {
		if m.From == "orig" || m.To == "orig" || dropP == 0 {
			return false
		}
		dropMu.Lock()
		defer dropMu.Unlock()
		return dropRng.Float64() < dropP
	}})
	defer inner.Close()
	net := &finalTap{Network: inner, finals: map[string]*pdp.Message{}}
	fr := telemetry.NewFlightRecorder(telemetry.FlightConfig{EventsPerTx: 4096})
	c := flightCluster(t, g, net, fr, 2, 10*time.Millisecond)
	defer c.Close()
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.SetFlight(fr)
	rs := submit(t, o, QuerySpec{
		Query: allNames, Entry: "node/0", Mode: mode, Pipeline: pipeline, Radius: -1,
		AbortTimeout: 300 * time.Millisecond,
	})
	info := settle(fr, rs.TxID)
	if info == nil || info.Dropped != 0 {
		t.Fatalf("flight = %+v, want a whole recording", info)
	}
	ti := fr.Trace(rs.TxID)

	if len(ti.Roots) != 1 || ti.Roots[0].Name != "updf.submit" {
		t.Fatalf("roots = %v, want exactly one updf.submit", spanNames(ti.Roots))
	}
	residency := map[string]*telemetry.SpanInfo{}
	leaves, reachable := 0, 0
	partials := map[string]int{}
	var walk func(s *telemetry.SpanInfo)
	walk = func(s *telemetry.SpanInfo) {
		reachable++
		if s.DurationUS < 0 {
			t.Errorf("span %s %d has duration %dus", s.Name, s.ID, s.DurationUS)
		}
		switch s.Name {
		case "updf.query":
			node := s.Attrs["node"]
			if residency[node] != nil {
				t.Errorf("%s has two residencies", node)
			}
			residency[node] = s
			partials[node], _ = strconv.Atoi(s.Attrs[telemetry.FlightPartial])
		case "updf.received":
			leaves++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(ti.Roots[0])
	if reachable != ti.Spans {
		t.Errorf("%d spans reachable from the root, %d built", reachable, ti.Spans)
	}

	firstSender := map[string]string{}
	received, wantPartials := 0, map[string]int{}
	for _, ev := range info.Events {
		switch ev.Kind {
		case telemetry.FlightReceived:
			received++
			if _, ok := firstSender[ev.Node]; !ok {
				firstSender[ev.Node] = ev.Peer
			}
		case telemetry.FlightPartial:
			wantPartials[ev.Node]++
		}
	}
	if len(residency) != len(firstSender) {
		t.Errorf("%d residencies for %d nodes that received the query", len(residency), len(firstSender))
	}
	if leaves != received-len(firstSender) {
		t.Errorf("%d later-received leaves, want %d", leaves, received-len(firstSender))
	}
	for node, from := range firstSender {
		s := residency[node]
		if s == nil {
			t.Errorf("%s received the query but has no residency", node)
			continue
		}
		want := ti.Roots[0].ID
		if from != "orig" {
			want = residency[from].ID
		}
		if s.Parent != want {
			t.Errorf("%s residency parented at %d, want its first sender %s's %d", node, s.Parent, from, want)
		}
		if partials[node] != wantPartials[node] {
			t.Errorf("%s residency counts %d relayed partials, its flight has %d", node, partials[node], wantPartials[node])
		}
		if _, finalized := s.Attrs["complete"]; !finalized {
			continue
		}
		m := net.final(info.TxID, node)
		if m == nil {
			t.Errorf("%s finalized but sent no final", node)
			continue
		}
		for k, v := range map[string]string{
			"local_hits":      "1",
			"subtree_hits":    strconv.Itoa(m.HitCount),
			"nodes_contacted": strconv.Itoa(m.NodesContacted),
			"nodes_responded": strconv.Itoa(m.NodesResponded),
			"complete":        strconv.FormatBool(m.Complete),
		} {
			if s.Attrs[k] != v {
				t.Errorf("%s residency %s = %q, its final says %q", node, k, s.Attrs[k], v)
			}
		}
	}
}

func spanNames(spans []*telemetry.SpanInfo) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// A referral submission reaches the same accounting as the other modes:
// the completeness histogram and the originator's item events.
func TestReferralSubmitAccounting(t *testing.T) {
	net := newTestNet()
	defer net.Close()
	fr := telemetry.NewFlightRecorder(telemetry.FlightConfig{})
	c := flightCluster(t, topology.Line(3), net, fr, 0, 0)
	defer c.Close()
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.SetTelemetry(telemetry.NewMetrics())
	o.SetFlight(fr)
	rs := submit(t, o, QuerySpec{Query: allNames, Entry: "node/0", Mode: pdp.Referral, Radius: -1})
	if len(rs.Items) != 3 || !rs.Complete {
		t.Fatalf("items=%d complete=%v, want 3 complete", len(rs.Items), rs.Complete)
	}
	if got := o.completeness.Count(); got != 1 {
		t.Errorf("completeness observations = %d, want 1", got)
	}
	kinds := map[string]int{}
	for _, ev := range fr.Tx(rs.TxID).Events {
		kinds[ev.Kind]++
	}
	if kinds[telemetry.FlightFirstItem] != 1 || kinds[telemetry.FlightItem] != 2 {
		t.Errorf("first-item/item events = %d/%d, want 1/2", kinds[telemetry.FlightFirstItem], kinds[telemetry.FlightItem])
	}
}
