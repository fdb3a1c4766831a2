package updf

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/simnet"
	"wsda/internal/telemetry"
	"wsda/internal/topology"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// capture is a scriptable network endpoint that records everything
// delivered to it.
type capture struct {
	mu   sync.Mutex
	msgs []*pdp.Message
}

func (c *capture) handler(m *pdp.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m.Clone())
	c.mu.Unlock()
}

func (c *capture) all() []*pdp.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*pdp.Message(nil), c.msgs...)
}

// fakeMetaNode registers a scripted Metadata-mode responder at addr: the
// query is answered with a record promising `promise` hits plus a clean
// receipt, and a later fetch is answered by fetchReply.
func fakeMetaNode(net *simnet.Network, addr string, promise int, fetchReply func(m *pdp.Message) *pdp.Message) {
	_ = net.Register(addr, func(m *pdp.Message) {
		switch m.Kind {
		case pdp.KindQuery:
			_ = net.Send(&pdp.Message{
				Kind: pdp.KindResult, TxID: m.TxID, From: addr, To: m.Origin,
				Source: addr, HitCount: promise,
			})
			_ = net.Send(&pdp.Message{
				Kind: pdp.KindReceipt, TxID: m.TxID, From: addr, To: m.From,
				HitCount: promise, Final: true,
				NodesContacted: 1, NodesResponded: 1, Complete: true,
			})
		case pdp.KindFetch:
			_ = net.Send(fetchReply(m))
		}
	})
}

// A metadata record promises hits, the fetch errs (state expired): the
// receipt's Complete=true verdict must not survive — items are provably
// missing.
func TestMetadataFetchExpiredForcesIncomplete(t *testing.T) {
	net := newTestNet()
	defer net.Close()
	fakeMetaNode(net, "meta/fake", 3, func(m *pdp.Message) *pdp.Message {
		return &pdp.Message{
			Kind: pdp.KindResult, TxID: m.TxID, From: "meta/fake", To: m.From,
			Source: "meta/fake", Final: true, Err: "state expired",
		}
	})
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	rs := submit(t, o, QuerySpec{Query: allNames, Entry: "meta/fake", Mode: pdp.Metadata, Radius: -1})
	if rs.Complete {
		t.Fatal("Complete = true after an expired fetch; the promised items never arrived")
	}
	if len(rs.Items) != 0 {
		t.Fatalf("items = %d, want 0", len(rs.Items))
	}
	found := false
	for _, e := range rs.Errs {
		if strings.Contains(e, "fetch delivered 0 of 3 promised items") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shortfall note in errs %v", rs.Errs)
	}
}

// The fetch answers, but with fewer items than the record promised.
func TestMetadataFetchShortDeliveryForcesIncomplete(t *testing.T) {
	net := newTestNet()
	defer net.Close()
	fakeMetaNode(net, "meta/fake", 3, func(m *pdp.Message) *pdp.Message {
		return &pdp.Message{
			Kind: pdp.KindResult, TxID: m.TxID, From: "meta/fake", To: m.From,
			Source: "meta/fake", Final: true,
			Items: xq.Sequence{"a", "b"}, HitCount: 2,
		}
	})
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	rs := submit(t, o, QuerySpec{Query: allNames, Entry: "meta/fake", Mode: pdp.Metadata, Radius: -1})
	if rs.Complete {
		t.Fatal("Complete = true after a short fetch (2 of 3 items)")
	}
	if len(rs.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(rs.Items))
	}
	found := false
	for _, e := range rs.Errs {
		if strings.Contains(e, "fetch delivered 2 of 3 promised items") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shortfall note in errs %v", rs.Errs)
	}
}

// A fetch against a live Routed transaction must not leak the node's
// buffered partial results.
func TestFetchRejectedForRoutedTx(t *testing.T) {
	net := newTestNet()
	defer net.Close()
	c := testCluster(t, topology.Line(1), net)
	defer c.Close()
	// A black-hole neighbor keeps the routed transaction (and its result
	// buffer) alive: node/0 waits for the child that never answers.
	_ = net.Register("hole", func(*pdp.Message) {})
	c.Nodes[0].SetNeighbors([]string{"hole"})

	orig := &capture{}
	_ = net.Register("orig", orig.handler)
	attacker := &capture{}
	_ = net.Register("attacker", attacker.handler)

	now := time.Now()
	_ = net.Send(&pdp.Message{
		Kind: pdp.KindQuery, TxID: "tx-routed", From: "orig", To: "node/0",
		Query: allNames, Mode: pdp.Routed, Origin: "orig",
		Scope: pdp.Scope{Radius: -1, LoopTimeout: now.Add(10 * time.Second), AbortTimeout: now.Add(10 * time.Second)},
	})
	// Wait until the local evaluation has buffered its hit.
	waitFor(t, 2*time.Second, func() bool { return c.Nodes[0].Stats().Evals >= 1 }, "local eval")

	_ = net.Send(&pdp.Message{Kind: pdp.KindFetch, TxID: "tx-routed", From: "attacker", To: "node/0"})
	waitFor(t, 2*time.Second, func() bool { return len(attacker.all()) >= 1 }, "fetch answer")
	for _, m := range attacker.all() {
		if len(m.Items) > 0 {
			t.Fatalf("fetch against a routed tx leaked %d buffered items", len(m.Items))
		}
		if m.Kind == pdp.KindResult && !strings.Contains(m.Err, "not a metadata transaction") {
			t.Fatalf("fetch answer err = %q, want a mode rejection", m.Err)
		}
	}
}

// A fetch for a Metadata transaction is answered only toward the
// originator the node recorded, never toward the requester address.
func TestFetchAnsweredOnlyToRecordedOrigin(t *testing.T) {
	net := newTestNet()
	defer net.Close()
	c := testCluster(t, topology.Line(1), net)
	defer c.Close()

	orig := &capture{}
	_ = net.Register("orig", orig.handler)
	attacker := &capture{}
	_ = net.Register("attacker", attacker.handler)

	now := time.Now()
	_ = net.Send(&pdp.Message{
		Kind: pdp.KindQuery, TxID: "tx-meta", From: "orig", To: "node/0",
		Query: allNames, Mode: pdp.Metadata, Origin: "orig",
		Scope: pdp.Scope{Radius: 0, LoopTimeout: now.Add(10 * time.Second), AbortTimeout: now.Add(10 * time.Second)},
	})
	// Record + receipt arrive at the originator once evaluation is done.
	waitFor(t, 2*time.Second, func() bool { return len(orig.all()) >= 2 }, "metadata record and receipt")

	_ = net.Send(&pdp.Message{Kind: pdp.KindFetch, TxID: "tx-meta", From: "attacker", To: "node/0"})
	waitFor(t, 2*time.Second, func() bool {
		for _, m := range orig.all() {
			if m.Kind == pdp.KindResult && m.Final && len(m.Items) == 1 {
				return true
			}
		}
		return false
	}, "fetch answer redirected to the recorded origin")
	if got := len(attacker.all()); got != 0 {
		t.Fatalf("attacker received %d messages, want 0 (answer must go to the recorded origin)", got)
	}
}

// The breaker gauge must report the breaker's state at scrape time: a
// circuit whose cooldown has expired reads 0 even though no breaker event
// fired in between.
func TestBreakerGaugeReadsAtScrapeTime(t *testing.T) {
	m := telemetry.NewMetrics()
	net := newTestNet()
	defer net.Close()
	c, err := BuildCluster(topology.Line(1), ClusterConfig{
		Net: net, Metrics: m,
		BreakerThreshold: 1, BreakerCooldown: 300 * time.Millisecond,
		AbortFloor: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An unregistered neighbor never answers; the abort deadline marks it
	// failed and trips the breaker.
	c.Nodes[0].SetNeighbors([]string{"node/dead"})
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	_ = submit(t, o, QuerySpec{
		Query: allNames, Entry: "node/0", Mode: pdp.Routed, Radius: -1,
		LoopTimeout: 2 * time.Second, AbortTimeout: 200 * time.Millisecond,
	})
	waitFor(t, 2*time.Second, func() bool { return c.Nodes[0].BreakerOpenCount() == 1 }, "breaker to open")

	scrape := func() string {
		var sb strings.Builder
		m.WritePrometheus(&sb)
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "wsda_pdp_breaker_open{") {
				return line
			}
		}
		return ""
	}
	if line := scrape(); !strings.HasSuffix(line, " 1") {
		t.Fatalf("gauge while open = %q, want value 1", line)
	}
	// No breaker events fire from here on; only time passes.
	time.Sleep(400 * time.Millisecond)
	if line := scrape(); !strings.HasSuffix(line, " 0") {
		t.Fatalf("gauge after cooldown expiry = %q, want value 0 without any breaker event", line)
	}
}

// newStreamServer wires a delayed simnet chain behind a real HTTP server
// mounting the /netquery handler.
// partialDelayNet reorders delivery to one address: non-final results are
// held until the final has gone through — the worst case a real transport
// (independent HTTP connections) can produce for pipelined delivery.
type partialDelayNet struct {
	pdp.Network
	to string

	mu    sync.Mutex
	held  []*pdp.Message
	final bool
}

func (p *partialDelayNet) Send(m *pdp.Message) error {
	if m.To != p.to || m.Kind != pdp.KindResult {
		return p.Network.Send(m)
	}
	p.mu.Lock()
	if !m.Final && !p.final {
		p.held = append(p.held, m.Clone())
		p.mu.Unlock()
		return nil
	}
	release := !p.final
	p.final = true
	held := p.held
	p.held = nil
	p.mu.Unlock()
	if err := p.Network.Send(m); err != nil {
		return err
	}
	if release {
		for _, h := range held {
			_ = p.Network.Send(h)
		}
	}
	return nil
}

// Pipelined partials that arrive after the entry final (a reordering
// transport can deliver them on any schedule) must still be drained
// before Submit returns — not silently dropped under complete=true.
func TestSubmitDrainsPartialsBehindFinal(t *testing.T) {
	inner := newTestNet()
	defer inner.Close()
	net := &partialDelayNet{Network: inner, to: "orig"}
	c := testCluster(t, topology.Line(4), net)
	defer c.Close()
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var streamed int
	rs := submit(t, o, QuerySpec{
		Query: allNames, Entry: "node/0", Mode: pdp.Routed, Radius: -1,
		Pipeline:     true,
		AbortTimeout: 500 * time.Millisecond,
		OnItem:       func(xq.Item, string) bool { streamed++; return true },
	})
	if len(rs.Items) != 4 || streamed != 4 {
		t.Fatalf("got %d items (%d streamed), want 4 — partials behind the final were dropped", len(rs.Items), streamed)
	}
	if !rs.Complete {
		t.Fatalf("complete = false: %+v", rs)
	}
	if rs.Aborted {
		t.Fatal("draining the trailing partials should not need the abort timer")
	}
}

// The same reordering one hop down: an intermediate node must not
// finalize while its child's declared items are still in flight — the
// child final's hit count says how many items to drain first.
func TestNodeDrainsChildPartialsBehindFinal(t *testing.T) {
	inner := newTestNet()
	defer inner.Close()
	net := &partialDelayNet{Network: inner, to: "node/0"}
	c := testCluster(t, topology.Line(3), net)
	defer c.Close()
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	rs := submit(t, o, QuerySpec{
		Query: allNames, Entry: "node/0", Mode: pdp.Routed, Radius: -1,
		Pipeline:     true,
		AbortTimeout: 500 * time.Millisecond,
	})
	if len(rs.Items) != 3 {
		t.Fatalf("got %d items, want 3 — the entry node finalized past its child's in-flight partials", len(rs.Items))
	}
	if !rs.Complete || rs.Aborted {
		t.Fatalf("complete=%v aborted=%v, want a clean complete result", rs.Complete, rs.Aborted)
	}
}

func newStreamServer(t *testing.T, n int, delay time.Duration) (*Cluster, *wsda.Client) {
	t.Helper()
	net := simnet.New(simnet.Config{Delay: simnet.UniformDelay(delay)})
	t.Cleanup(net.Close)
	c := testCluster(t, topology.Line(n), net)
	t.Cleanup(c.Close)
	o, err := NewOriginator("orig", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	srv := httptest.NewServer(NetQueryHandler(o, "node/0", nil, nil))
	t.Cleanup(srv.Close)
	return c, wsda.NewClient(srv.URL)
}

func totalCloses(c *Cluster) int64 {
	var n int64
	for _, node := range c.Nodes {
		n += node.Stats().Closes
	}
	return n
}

func streamParams(kv ...string) url.Values {
	p := url.Values{}
	p.Set("mode", "routed")
	p.Set("radius", "-1")
	p.Set("pipeline", "true")
	for i := 0; i+1 < len(kv); i += 2 {
		p.Set(kv[i], kv[i+1])
	}
	return p
}

// max-results=N must deliver exactly N items and close the transaction
// network-wide while it is still running.
func TestNetQueryStreamMaxResults(t *testing.T) {
	c, cl := newStreamServer(t, 5, 15*time.Millisecond)
	var items []xq.Item
	sum, err := cl.NetQueryStream(allNames, streamParams("stream", "true", "max-results", "2"),
		func(it xq.Item) bool { items = append(items, it); return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || sum.Count != 2 {
		t.Fatalf("delivered %d items, summary count %d, want exactly 2", len(items), sum.Count)
	}
	if sum.Complete {
		t.Fatal("truncated stream reported complete=true")
	}
	// The KindClose must reach nodes whose part of the transaction was
	// still live (the chain tail is ~60ms of link delay away).
	waitFor(t, 2*time.Second, func() bool { return totalCloses(c) >= 1 },
		"a downstream node to observe KindClose")
}

// A client that walks away mid-stream must close the transaction
// network-wide instead of leaving the query running to its abort deadline.
func TestNetQueryStreamDisconnectClosesTx(t *testing.T) {
	c, cl := newStreamServer(t, 6, 15*time.Millisecond)
	// Stop decoding after the first item: NetQueryStream returns and closes
	// the response body, which cancels the server's request context.
	sum, err := cl.NetQueryStream(allNames, streamParams("stream", "true"),
		func(it xq.Item) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 1 {
		t.Fatalf("decoded %d items before disconnecting, want 1", sum.Count)
	}
	waitFor(t, 2*time.Second, func() bool { return totalCloses(c) >= 1 },
		"a downstream node to observe KindClose after the disconnect")
}

// Streamed and buffered delivery must carry the same items with the same
// accounting.
func TestStreamedBufferedEquivalence(t *testing.T) {
	_, cl := newStreamServer(t, 4, time.Millisecond)
	collect := func(params url.Values) ([]string, *wsda.StreamSummary) {
		var got []string
		sum, err := cl.NetQueryStream(allNames, params, func(it xq.Item) bool {
			got = append(got, xq.Serialize(xq.Sequence{it}))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got, sum
	}
	buffered, bufSum := collect(streamParams())
	streamed, strSum := collect(streamParams("stream", "true"))
	if len(buffered) != 4 || len(streamed) != 4 {
		t.Fatalf("buffered %d / streamed %d items, want 4 each", len(buffered), len(streamed))
	}
	for i := range buffered {
		if buffered[i] != streamed[i] {
			t.Fatalf("item %d differs:\nbuffered: %s\nstreamed: %s", i, buffered[i], streamed[i])
		}
	}
	if !bufSum.Complete || !strSum.Complete {
		t.Fatalf("complete: buffered=%v streamed=%v, want true/true", bufSum.Complete, strSum.Complete)
	}
	if !bufSum.Network || !strSum.Network {
		t.Fatalf("network accounting: buffered=%v streamed=%v, want true/true", bufSum.Network, strSum.Network)
	}
	if bufSum.NodesContacted != strSum.NodesContacted || bufSum.NodesResponded != strSum.NodesResponded {
		t.Fatalf("accounting differs: buffered %d/%d, streamed %d/%d",
			bufSum.NodesResponded, bufSum.NodesContacted, strSum.NodesResponded, strSum.NodesContacted)
	}
}

// Oversized /netquery bodies are rejected outright instead of silently
// truncating the query text.
func TestNetQueryOversizeBody(t *testing.T) {
	_, cl := newStreamServer(t, 1, 0)
	big := strings.Repeat("x", wsda.MaxQueryBytes+1)
	resp, err := http.Post(cl.BaseURL+wsda.PathNetQuery, "text/xml", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}
