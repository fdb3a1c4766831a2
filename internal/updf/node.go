package updf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/registry"
	"wsda/internal/resilience"
	"wsda/internal/softstate"
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// Config configures a Node.
type Config struct {
	Addr     string             // the node's PDP address
	Net      pdp.Network        // transport to register on and send through
	Registry *registry.Registry // the local hyper registry queries run against

	// QueryOptions are applied to every local evaluation (freshness,
	// filter scope).
	QueryOptions registry.QueryOptions

	// DefaultStateTTL bounds state-table retention when a query carries no
	// loop timeout. Zero means 30s.
	DefaultStateTTL time.Duration

	// AbortPolicy controls how the dynamic abort timeout shrinks per hop:
	// AbortHalve (default) gives each child half the remaining budget so
	// answers can travel back through every level; AbortInherit passes the
	// deadline through unchanged (the naive static variant ablated in
	// experiment E7).
	AbortPolicy string

	// AbortFloor bounds how small halving can make the remaining budget:
	// without a floor, a node at hop k is left budget/2^k, which dips under
	// its own processing time on deep topologies and makes healthy nodes
	// abort spuriously. Zero means 500ms.
	AbortFloor time.Duration

	// MaxRetries is how many times a child query left unanswered is
	// retransmitted before the node gives up and lets the abort timeout
	// account for the child. Zero disables retransmission. Resends are
	// byte-identical (deadlines are absolute), so the receiving child
	// either ignores them (transaction in flight) or re-answers with its
	// recorded final — retransmission can never double-execute a query.
	MaxRetries int

	// RetryInterval is the delay before the first retransmission;
	// successive delays double (exponential backoff). The effective budget
	// is still capped by the query's abort timeout: finalization stops all
	// retry timers. Zero means 200ms when MaxRetries > 0.
	RetryInterval time.Duration

	// BreakerThreshold enables a per-neighbor circuit breaker: after this
	// many consecutive abort-timeout failures a neighbor is skipped during
	// neighbor selection until BreakerCooldown elapses (then one probe
	// query is let through). Skipping marks results incomplete but keeps
	// persistently dead peers from costing every query its full retry
	// budget. Zero disables the breaker.
	BreakerThreshold int

	// BreakerCooldown is how long an open neighbor circuit rejects
	// forwarding before a probe. Zero means 5s (when the breaker is on).
	BreakerCooldown time.Duration

	// Seed seeds the neighbor-selection RNG; 0 derives one from the
	// address so distinct nodes shuffle differently but deterministically.
	Seed int64

	// Now is the clock; nil means time.Now.
	Now func() time.Time

	// Metrics, when set, receives per-node latency histograms (query
	// handling, local evaluation, loop-detect check, state sweeps),
	// labeled by node address. Nil disables collection.
	Metrics *telemetry.Metrics

	// Flight, when set, receives per-transaction lifecycle events
	// (received, forward, retransmit, breaker trips, partials, finals) so
	// /debug/query/<tx> can replay exactly what this node did for a query
	// and /debug/traces can nest it into the query's hop tree. Nil
	// disables recording.
	Flight *telemetry.FlightRecorder
}

// Abort-timeout shrink policies.
const (
	// AbortHalve halves the remaining abort budget per hop (default).
	AbortHalve = "halve"
	// AbortInherit passes the deadline through unchanged.
	AbortInherit = "inherit"
)

// Stats are cumulative node counters.
type Stats struct {
	QueriesSeen    int64 // query messages received
	Duplicates     int64 // loop-detected duplicates
	DroppedExpired int64 // queries past their loop timeout
	Evals          int64 // local query evaluations
	EvalErrors     int64 // local evaluations that failed
	Forwards       int64 // query messages forwarded to neighbors
	Aborts         int64 // transactions cut short by the abort timeout
	LateMessages   int64 // results/receipts arriving after finalization
	Retries        int64 // child-query retransmissions
	BreakerOpens   int64 // neighbor circuits tripped open
	BreakerSkips   int64 // forwards suppressed by an open circuit
	Closes         int64 // live transactions cancelled by a KindClose
}

// Node is one UPDF peer. It is driven entirely by messages delivered from
// the pdp.Network; all its sends are asynchronous.
type Node struct {
	cfg Config
	now func() time.Time

	mu         sync.RWMutex
	neighbors  []string
	membership *Membership

	states *softstate.Store[*txState]
	rng    *lockedRand

	// breaker is nil unless Config.BreakerThreshold > 0; a nil breaker
	// never trips, so the fast path stays branch-free.
	breaker *resilience.Breaker

	queriesSeen, duplicates, droppedExpired atomic.Int64
	evals, evalErrors, forwards             atomic.Int64
	aborts, lateMessages                    atomic.Int64
	retries, breakerOpens, breakerSkips     atomic.Int64
	closes                                  atomic.Int64

	// Telemetry handles; nil when Config.Metrics/Flight are unset.
	flight           *telemetry.FlightRecorder
	handleSeconds    *telemetry.Histogram
	evalSeconds      *telemetry.Histogram
	loopCheckSeconds *telemetry.Histogram
	retriesMetric    *telemetry.Counter
}

// NewNode creates a node and registers it on the network.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("updf: node needs an address")
	}
	if cfg.Net == nil {
		return nil, fmt.Errorf("updf: node needs a network")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("updf: node needs a registry")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.DefaultStateTTL == 0 {
		cfg.DefaultStateTTL = 30 * time.Second
	}
	if cfg.AbortFloor == 0 {
		cfg.AbortFloor = 500 * time.Millisecond
	}
	if cfg.MaxRetries > 0 && cfg.RetryInterval == 0 {
		cfg.RetryInterval = 200 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, b := range []byte(cfg.Addr) {
			seed = seed*131 + int64(b)
		}
	}
	n := &Node{
		cfg:    cfg,
		now:    cfg.Now,
		states: softstate.New[*txState](cfg.Now),
		rng:    newLockedRand(seed),
		flight: cfg.Flight,
	}
	if m := cfg.Metrics; m != nil {
		n.handleSeconds = m.HistogramVec("wsda_updf_query_handle_seconds",
			"Latency of query-message handling (loop check, forward, local eval).",
			nil, "node").With(cfg.Addr)
		n.evalSeconds = m.HistogramVec("wsda_updf_eval_seconds",
			"Latency of local query evaluations.", nil, "node").With(cfg.Addr)
		n.loopCheckSeconds = m.HistogramVec("wsda_updf_loop_check_seconds",
			"Latency of the state-table loop-detection check.", nil, "node").With(cfg.Addr)
		n.states.InstrumentSweeps(m.HistogramVec("wsda_updf_state_sweep_seconds",
			"Latency of state-table sweeps.", nil, "node").With(cfg.Addr))
		n.retriesMetric = m.CounterVec("wsda_pdp_retries_total",
			"Child-query retransmissions to unresponsive neighbors.", "node").With(cfg.Addr)
		// Read the breaker at exposition time rather than on breaker
		// events: cooldown expiry closes circuits silently, so an
		// event-updated gauge would stay stuck high until the next trip.
		m.GaugeFuncVec("wsda_pdp_breaker_open",
			"Neighbor circuits currently open (read at scrape time).", "node").
			With(func() float64 { return float64(n.BreakerOpenCount()) }, cfg.Addr)
	}
	if cfg.BreakerThreshold > 0 {
		n.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
			Now:       cfg.Now,
			OnOpen:    func(string) { n.breakerOpens.Add(1) },
		})
	}
	if err := cfg.Net.Register(cfg.Addr, n.handle); err != nil {
		return nil, err
	}
	return n, nil
}

// Addr returns the node's network address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Registry returns the node's local database.
func (n *Node) Registry() *registry.Registry { return n.cfg.Registry }

// SetNeighbors replaces the node's neighbor set.
func (n *Node) SetNeighbors(addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.neighbors = append([]string(nil), addrs...)
}

// Neighbors returns a copy of the neighbor set.
func (n *Node) Neighbors() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]string(nil), n.neighbors...)
}

// Close unregisters the node from the network.
func (n *Node) Close() { n.cfg.Net.Unregister(n.cfg.Addr) }

// Stats returns a snapshot of the node counters.
func (n *Node) Stats() Stats {
	return Stats{
		QueriesSeen:    n.queriesSeen.Load(),
		Duplicates:     n.duplicates.Load(),
		DroppedExpired: n.droppedExpired.Load(),
		Evals:          n.evals.Load(),
		EvalErrors:     n.evalErrors.Load(),
		Forwards:       n.forwards.Load(),
		Aborts:         n.aborts.Load(),
		LateMessages:   n.lateMessages.Load(),
		Retries:        n.retries.Load(),
		BreakerOpens:   n.breakerOpens.Load(),
		BreakerSkips:   n.breakerSkips.Load(),
		Closes:         n.closes.Load(),
	}
}

// BreakerOpenCount returns how many neighbor circuits are currently open —
// the value behind the wsda_pdp_breaker_open gauge. Zero when the breaker
// is disabled.
func (n *Node) BreakerOpenCount() int { return n.breaker.OpenCount() }

// StateTableSize returns the number of live state-table entries (loop
// detection memory).
func (n *Node) StateTableSize() int { return n.states.Len() }

// SweepStates garbage-collects expired state-table entries.
func (n *Node) SweepStates() int { return n.states.Sweep() }

// AdvertiseSelf publishes a node tuple describing this peer — address and
// current neighbor links — into its own registry under the given lifetime.
// Node tuples make the P2P network itself discoverable through the very
// query mechanism it implements: a network query for //node/@addr maps the
// overlay (thesis Ch. 4: tuple type "node" advertises registry nodes).
func (n *Node) AdvertiseSelf(ttl time.Duration) error {
	content := xmldoc.NewElement("node")
	content.SetAttr("addr", n.cfg.Addr)
	content.SetAttr("registry", n.cfg.Registry.Name())
	for _, nb := range n.Neighbors() {
		e := xmldoc.NewElement("neighbor")
		e.SetAttr("addr", nb)
		content.AppendChild(e)
	}
	content.Renumber()
	_, err := n.cfg.Registry.Publish(&tuple.Tuple{
		Link:    "pdp://" + n.cfg.Addr,
		Type:    tuple.TypeNode,
		Context: "self",
		Content: content,
	}, ttl)
	return err
}

// handle dispatches one incoming message. It runs on the network's
// delivery goroutine for this address.
func (n *Node) handle(m *pdp.Message) {
	switch m.Kind {
	case pdp.KindQuery:
		n.handleQuery(m)
	case pdp.KindResult:
		n.handleResult(m)
	case pdp.KindReceipt:
		n.handleReceipt(m)
	case pdp.KindFetch:
		n.handleFetch(m)
	case pdp.KindClose:
		n.handleClose(m)
	case pdp.KindPing:
		if mem := n.currentMembership(); mem != nil {
			mem.observe(m.From, nil, true)
		}
		n.send(&pdp.Message{
			Kind: pdp.KindPong, TxID: m.TxID, From: n.cfg.Addr, To: m.From,
			Neighbors: n.Neighbors(),
		})
	case pdp.KindPong:
		if mem := n.currentMembership(); mem != nil {
			mem.observe(m.From, m.Neighbors, true)
		}
	}
}

func (n *Node) currentMembership() *Membership {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.membership
}

func (n *Node) handleQuery(m *pdp.Message) {
	if n.handleSeconds != nil {
		defer n.handleSeconds.ObserveSince(time.Now())
	}
	n.queriesSeen.Add(1)
	n.flight.Record(m.TxID, telemetry.FlightReceived, n.cfg.Addr, m.From, int64(m.Hop), "")
	now := n.now()

	// Static loop timeout: queries past their deadline are silently
	// dropped everywhere, bounding both traffic and state retention.
	if !m.Scope.LoopTimeout.IsZero() && now.After(m.Scope.LoopTimeout) {
		n.droppedExpired.Add(1)
		n.flight.Record(m.TxID, telemetry.FlightExpired, n.cfg.Addr, m.From, 0, "")
		return
	}

	// Loop detection (thesis Ch. 6.3): a transaction already in the state
	// table is a duplicate. Three cases:
	//
	//   - same parent, transaction still running: a retransmission of a
	//     query we are already working on — ignore it; the parent will get
	//     the final when it is ready. Answering it with an empty final
	//     (the pre-resilience behavior) would cancel live work.
	//   - same parent, transaction finalized: the parent missed our final;
	//     resend the recorded one.
	//   - different sender: a genuine loop over another path — answer with
	//     an immediate empty final (complete, zero nodes counted, so the
	//     alternate parent does not double count this subtree) so the
	//     upstream node does not wait for the abort timeout.
	st := &txState{
		parent:   m.From,
		origin:   m.Origin,
		mode:     m.Mode,
		pipeline: m.Pipeline,
		pending:  make(map[string]bool),
		children: make(map[string]*childState),
	}
	ttl := n.cfg.DefaultStateTTL
	if !m.Scope.LoopTimeout.IsZero() {
		ttl = m.Scope.LoopTimeout.Sub(now)
	}
	var lc0 time.Time
	if n.loopCheckSeconds != nil {
		lc0 = time.Now()
	}
	cur, isNew := n.states.PutIfAbsent(m.TxID, st, ttl)
	if n.loopCheckSeconds != nil {
		n.loopCheckSeconds.ObserveSince(lc0)
	}
	if !isNew {
		n.duplicates.Add(1)
		n.flight.Record(m.TxID, telemetry.FlightDuplicate, n.cfg.Addr, m.From, 0, "")
		cur.mu.Lock()
		sameParent := cur.parent == m.From
		finalOut := cur.finalOut
		cur.mu.Unlock()
		if sameParent {
			if finalOut != nil {
				n.send(finalOut)
			}
			return
		}
		n.send(&pdp.Message{
			Kind: pdp.KindReceipt, TxID: m.TxID, From: n.cfg.Addr, To: m.From,
			Final: true, Complete: true,
		})
		return
	}

	// Forward to selected neighbors while the radius allows. Referral mode
	// never forwards: expansion is originator-driven.
	if m.Mode != pdp.Referral && m.Scope.Radius != 0 {
		children := selectNeighbors(m.Scope.Policy, n.Neighbors(), m.From, m.Scope.Fanout, n.rng)
		// The circuit breaker feeds back into neighbor selection: peers
		// whose circuit is open are skipped entirely. Their subtree is not
		// contacted, which makes this node's answer incomplete — the honest
		// trade against stalling every query on a known-dead peer.
		if n.breaker != nil {
			kept := children[:0]
			for _, child := range children {
				if n.breaker.Allow(child) {
					kept = append(kept, child)
				} else {
					n.breakerSkips.Add(1)
					n.flight.Record(m.TxID, telemetry.FlightBreakerSkip, n.cfg.Addr, child, 0, "")
					st.skipped++
				}
			}
			children = kept
		}
		childScope := m.Scope
		if childScope.Radius > 0 {
			childScope.Radius--
		}
		if !childScope.AbortTimeout.IsZero() && n.cfg.AbortPolicy != AbortInherit {
			// Dynamic abort timeout (thesis Ch. 6.6): each hop halves the
			// remaining budget so partial results can flow back through
			// every level before the originator's own deadline passes. The
			// floor keeps deep hops from being starved below their own
			// processing time.
			remaining := childScope.AbortTimeout.Sub(now)
			budget := remaining / 2
			if budget < n.cfg.AbortFloor {
				budget = n.cfg.AbortFloor
				if budget > remaining {
					budget = remaining
				}
			}
			childScope.AbortTimeout = now.Add(budget)
		}
		st.mu.Lock()
		for _, child := range children {
			st.pending[child] = true
			st.children[child] = &childState{
				msg: &pdp.Message{
					Kind: pdp.KindQuery, TxID: m.TxID, From: n.cfg.Addr, To: child,
					Hop: m.Hop + 1, Query: m.Query, Mode: m.Mode, Origin: m.Origin,
					Pipeline: m.Pipeline, Scope: childScope,
				},
				left:     n.cfg.MaxRetries,
				interval: n.cfg.RetryInterval,
			}
		}
		st.mu.Unlock()
		for _, child := range children {
			n.forwards.Add(1)
			n.flight.Record(m.TxID, telemetry.FlightForward, n.cfg.Addr, child, int64(m.Hop+1), "")
			st.mu.Lock()
			cs := st.children[child]
			msg := cs.msg
			if cs.left > 0 {
				child := child
				cs.timer = time.AfterFunc(cs.interval, func() { n.retryChild(m.TxID, child) })
			}
			st.mu.Unlock()
			n.send(msg)
		}
	}

	// Arm the dynamic abort timer before evaluating, so a pathological
	// local evaluation cannot block the deadline.
	if !m.Scope.AbortTimeout.IsZero() {
		d := m.Scope.AbortTimeout.Sub(now)
		if d < 0 {
			d = 0
		}
		st.mu.Lock()
		st.timer = time.AfterFunc(d, func() { n.abortTx(m.TxID) })
		st.mu.Unlock()
	}

	n.evalLocal(m, st)
	st.mu.Lock()
	st.localDone = true
	st.mu.Unlock()
	n.checkCompletion(m.TxID, st)
}

// retryChild fires when a forwarded child query has gone unanswered for
// one backoff interval: the recorded message is resent verbatim (its
// deadlines are absolute) and the timer re-arms with a doubled delay until
// the retransmission budget is spent or the transaction finalizes, which
// stops every child timer. The abort timeout therefore remains the hard
// cap on how long retries can keep a transaction alive.
func (n *Node) retryChild(tx, child string) {
	st, ok := n.states.Get(tx)
	if !ok {
		return
	}
	st.mu.Lock()
	cs := st.children[child]
	if cs == nil || cs.done || st.finalSent || cs.left <= 0 {
		st.mu.Unlock()
		return
	}
	cs.left--
	cs.interval *= 2
	msg := cs.msg
	if cs.left > 0 {
		cs.timer = time.AfterFunc(cs.interval, func() { n.retryChild(tx, child) })
	}
	left := cs.left
	st.mu.Unlock()
	n.retries.Add(1)
	if n.retriesMetric != nil {
		n.retriesMetric.Inc()
	}
	n.flight.Record(tx, telemetry.FlightRetransmit, n.cfg.Addr, child, int64(left), "")
	n.send(msg)
}

// childFinalLocked books a final message from a child: cancels its retry
// timer, removes it from pending, and folds its subtree accounting into
// ours. It reports false when the final is a duplicate (a retransmission
// race) that must be ignored. st.mu must be held.
func (st *txState) childFinalLocked(m *pdp.Message) bool {
	if cs := st.children[m.From]; cs != nil {
		if cs.done {
			return false
		}
		cs.done = true
		if cs.timer != nil {
			cs.timer.Stop()
		}
	}
	delete(st.pending, m.From)
	st.childContacted += m.NodesContacted
	st.childResponded += m.NodesResponded
	if !m.Complete {
		st.childIncomplete = true
	}
	return true
}

// evalLocal runs the query against the node's own registry and disposes of
// the local results per the response mode.
func (n *Node) evalLocal(m *pdp.Message, st *txState) {
	start := time.Now()
	if n.evalSeconds != nil {
		defer n.evalSeconds.ObserveSince(start)
	}
	n.evals.Add(1)
	opts := n.cfg.QueryOptions
	// Stamp the transaction onto the evaluation so the registry's own
	// flight events (planned, plan-fallback, view-hit/miss) land in the
	// same recording, and capture the chosen plan so the eval event says
	// how the local engine answered.
	opts.TxID = m.TxID
	var plan registry.PlanInfo
	opts.Explain = &plan
	defer func() {
		st.mu.Lock()
		hits, evalErr := st.localHits, st.evalErr
		st.mu.Unlock()
		note := evalErr
		if note == "" {
			note = plan.String()
		}
		n.flight.RecordDur(m.TxID, telemetry.FlightEval, n.cfg.Addr, "", int64(hits), note, time.Since(start))
	}()

	if st.mode == pdp.Routed && st.pipeline {
		// Pipelined routed execution: every item is relayed upstream the
		// moment the local engine produces it (thesis Ch. 6.5).
		opts.Emit = func(it xq.Item) bool {
			st.mu.Lock()
			aborted := st.finalSent
			st.localHits++
			st.subtreeHits++
			st.mu.Unlock()
			if aborted {
				return false
			}
			n.send(&pdp.Message{
				Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: st.parent,
				Items: xq.Sequence{it}, HitCount: 1, Source: n.cfg.Addr,
			})
			return true
		}
		if _, err := n.cfg.Registry.Query(m.Query, opts); err != nil {
			n.evalErrors.Add(1)
			st.mu.Lock()
			st.evalErr = err.Error()
			st.mu.Unlock()
		}
		return
	}

	seq, err := n.cfg.Registry.Query(m.Query, opts)
	if err != nil {
		n.evalErrors.Add(1)
		st.mu.Lock()
		st.evalErr = err.Error()
		st.mu.Unlock()
		return
	}
	st.mu.Lock()
	st.localHits = len(seq)
	st.subtreeHits += len(seq)
	aborted := st.finalSent
	st.mu.Unlock()
	if aborted {
		return
	}
	switch st.mode {
	case pdp.Routed:
		st.mu.Lock()
		st.buffered = append(st.buffered, seq...)
		st.mu.Unlock()
	case pdp.Direct:
		// Only matching nodes answer directly; completion is detected via
		// the routed receipts, whose hit totals tell the originator how
		// many items to expect.
		if len(seq) > 0 {
			n.send(&pdp.Message{
				Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: st.origin,
				Items: seq, HitCount: len(seq), Source: n.cfg.Addr, Final: true,
			})
		}
	case pdp.Metadata:
		st.mu.Lock()
		st.buffered = seq // retained for a later Fetch
		st.mu.Unlock()
		if len(seq) > 0 {
			// Metadata record: count + source, routed upstream.
			n.send(&pdp.Message{
				Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: st.parent,
				HitCount: len(seq), Source: n.cfg.Addr,
			})
		}
	case pdp.Referral:
		n.send(&pdp.Message{
			Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: st.origin,
			Items: seq, HitCount: len(seq), Source: n.cfg.Addr, Final: true,
			Neighbors:      n.Neighbors(),
			NodesContacted: 1, NodesResponded: 1, Complete: true,
		})
	}
}

func (n *Node) handleResult(m *pdp.Message) {
	st, ok := n.states.Get(m.TxID)
	if !ok {
		n.lateMessages.Add(1)
		return
	}
	st.mu.Lock()
	if st.finalSent {
		st.mu.Unlock()
		n.lateMessages.Add(1)
		return
	}
	if m.Final && !st.childFinalLocked(m) {
		st.mu.Unlock()
		n.lateMessages.Add(1)
		return
	}
	var relay *pdp.Message
	switch st.mode {
	case pdp.Routed:
		st.subtreeHits += len(m.Items)
		if cs := st.children[m.From]; cs != nil {
			cs.received += len(m.Items)
			if m.Final {
				cs.promised = m.HitCount
			}
		}
		if st.pipeline {
			if len(m.Items) > 0 {
				relay = &pdp.Message{
					Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: st.parent,
					Items: m.Items, HitCount: len(m.Items), Source: m.Source,
				}
			}
		} else {
			st.buffered = append(st.buffered, m.Items...)
		}
	case pdp.Metadata:
		// Relay the metadata record upstream verbatim (source preserved).
		if m.HitCount > 0 && m.Source != "" {
			relay = &pdp.Message{
				Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: st.parent,
				HitCount: m.HitCount, Source: m.Source,
			}
		}
	}
	st.mu.Unlock()
	if m.Final {
		n.flight.Record(m.TxID, telemetry.FlightChildFinal, n.cfg.Addr, m.From, int64(m.HitCount), "")
	} else if len(m.Items) > 0 {
		n.flight.Record(m.TxID, telemetry.FlightPartial, n.cfg.Addr, m.From, int64(len(m.Items)), "")
	}
	if relay != nil {
		n.send(relay)
	}
	if m.Final {
		n.breaker.Success(m.From)
	}
	n.checkCompletion(m.TxID, st)
}

func (n *Node) handleReceipt(m *pdp.Message) {
	st, ok := n.states.Get(m.TxID)
	if !ok {
		n.lateMessages.Add(1)
		return
	}
	st.mu.Lock()
	if st.finalSent {
		st.mu.Unlock()
		n.lateMessages.Add(1)
		return
	}
	if !st.childFinalLocked(m) {
		st.mu.Unlock()
		n.lateMessages.Add(1)
		return
	}
	st.subtreeHits += m.HitCount
	st.mu.Unlock()
	n.flight.Record(m.TxID, telemetry.FlightChildFinal, n.cfg.Addr, m.From, int64(m.HitCount), "receipt")
	n.breaker.Success(m.From)
	n.checkCompletion(m.TxID, st)
}

// handleFetch serves the items retained for Metadata mode directly to the
// originator. Only Metadata-mode state is fetchable, and the answer goes to
// the origin recorded when the query arrived, never to an address the Fetch
// message claims: a Fetch against a Routed transaction (whose buffer holds
// in-flight results bound for the parent) or with a forged Origin must not
// leak the buffer.
func (n *Node) handleFetch(m *pdp.Message) {
	resp := &pdp.Message{
		Kind: pdp.KindResult, TxID: m.TxID, From: n.cfg.Addr, To: m.From,
		Source: n.cfg.Addr, Final: true,
	}
	st, ok := n.states.Get(m.TxID)
	if !ok {
		resp.Err = "state expired"
		n.send(resp)
		return
	}
	st.mu.Lock()
	mode, origin := st.mode, st.origin
	if mode == pdp.Metadata {
		resp.Items = append(xq.Sequence(nil), st.buffered...)
		resp.HitCount = len(resp.Items)
	}
	st.mu.Unlock()
	if mode != pdp.Metadata {
		resp.Err = "fetch: not a metadata transaction"
		n.send(resp)
		return
	}
	if origin != "" {
		resp.To = origin
	}
	n.send(resp)
}

// handleClose aborts a transaction on request of the originator and
// propagates the close to children still pending.
func (n *Node) handleClose(m *pdp.Message) {
	st, ok := n.states.Get(m.TxID)
	if !ok {
		return
	}
	st.mu.Lock()
	if st.finalSent {
		st.mu.Unlock()
		return
	}
	st.finalSent = true
	n.closes.Add(1)
	if st.timer != nil {
		st.timer.Stop()
	}
	for _, cs := range st.children {
		if cs.timer != nil {
			cs.timer.Stop()
		}
	}
	children := make([]string, 0, len(st.pending))
	for c := range st.pending {
		children = append(children, c)
	}
	st.pending = map[string]bool{}
	st.buffered = nil
	st.mu.Unlock()
	n.flight.Record(m.TxID, telemetry.FlightClose, n.cfg.Addr, m.From, int64(len(children)), "")
	for _, c := range children {
		n.send(&pdp.Message{Kind: pdp.KindClose, TxID: m.TxID, From: n.cfg.Addr, To: c})
	}
}

// checkCompletion finalizes the transaction once the local evaluation is
// done, every child has reported, and every routed child's declared items
// have been drained (see childrenDrainedLocked); until then each arriving
// result re-triggers this check.
func (n *Node) checkCompletion(tx string, st *txState) {
	st.mu.Lock()
	if st.finalSent || !st.localDone || len(st.pending) > 0 || !st.childrenDrainedLocked() {
		st.mu.Unlock()
		return
	}
	n.finalizeLocked(tx, st, "")
}

// abortTx fires when the dynamic abort timeout elapses: whatever is
// buffered is flushed upstream with a final marker, and later child
// messages are dropped.
func (n *Node) abortTx(tx string) {
	st, ok := n.states.Get(tx)
	if !ok {
		return
	}
	st.mu.Lock()
	if st.finalSent {
		st.mu.Unlock()
		return
	}
	n.aborts.Add(1)
	n.flight.Record(tx, telemetry.FlightAbort, n.cfg.Addr, "", int64(len(st.pending)), "abort-timeout")
	n.finalizeLocked(tx, st, "abort-timeout")
}

// finalizeLocked sends the final upstream message. st.mu must be held; it
// is released before returning.
//
// The final carries the subtree's partial-result accounting: contacted is
// this node plus everything its answered children report plus one for each
// child that never answered (we reached for it, it stayed silent); responded
// is this node plus the answered subtrees. The answer is complete only if
// nothing was lost anywhere below: no abort, no local eval error, no silent
// children, no incomplete child subtree, and no breaker-skipped neighbor
// (skipped peers were never contacted, but their absence still means the
// network was not fully covered).
func (n *Node) finalizeLocked(tx string, st *txState, abortErr string) {
	st.finalSent = true
	if st.timer != nil {
		st.timer.Stop()
	}
	for _, cs := range st.children {
		if cs.timer != nil {
			cs.timer.Stop()
		}
	}
	contacted := 1 + st.childContacted + len(st.pending)
	responded := 1 + st.childResponded
	complete := abortErr == "" && st.evalErr == "" && len(st.pending) == 0 &&
		!st.childIncomplete && st.skipped == 0
	// Children still pending at an abort are delivery failures: feed the
	// circuit breaker so persistently dead peers get skipped next time.
	var failed []string
	if abortErr != "" && n.breaker != nil {
		for c := range st.pending {
			failed = append(failed, c)
		}
	}
	errStr := st.evalErr
	if abortErr != "" {
		if errStr != "" {
			errStr += "; "
		}
		errStr += abortErr
	}
	var out *pdp.Message
	switch st.mode {
	case pdp.Routed:
		out = &pdp.Message{
			Kind: pdp.KindResult, TxID: tx, From: n.cfg.Addr, To: st.parent,
			Items: st.buffered, HitCount: st.subtreeHits, Final: true,
			Source: n.cfg.Addr, Err: errStr,
			NodesContacted: contacted, NodesResponded: responded, Complete: complete,
		}
		st.buffered = nil
	case pdp.Direct, pdp.Metadata:
		out = &pdp.Message{
			Kind: pdp.KindReceipt, TxID: tx, From: n.cfg.Addr, To: st.parent,
			HitCount: st.subtreeHits, Final: true, Err: errStr,
			NodesContacted: contacted, NodesResponded: responded, Complete: complete,
		}
	case pdp.Referral:
		// Referral answered directly in evalLocal; nothing upstream.
	}
	st.finalOut = out
	subtreeHits := st.subtreeHits
	st.mu.Unlock()
	note := "complete"
	if !complete {
		note = "incomplete"
	}
	if abortErr != "" {
		note += "," + abortErr
	}
	if n.flight != nil {
		note += fmt.Sprintf(" contacted=%d responded=%d", contacted, responded)
	}
	n.flight.Record(tx, telemetry.FlightNodeFinal, n.cfg.Addr, "", int64(subtreeHits), note)
	if out != nil {
		n.send(out)
	}
	for _, c := range failed {
		if n.breaker.Failure(c) {
			// Failure reports true when this failure tripped the circuit:
			// record the trip against the transaction that caused it so the
			// flight shows exactly when a neighbor went dark.
			n.flight.Record(tx, telemetry.FlightBreakerOpen, n.cfg.Addr, c, 0, "")
		}
	}
}

func (n *Node) send(m *pdp.Message) {
	// Best effort: unknown addresses (departed peers) are ignored, exactly
	// like a connectionless network.
	_ = n.cfg.Net.Send(m)
}
