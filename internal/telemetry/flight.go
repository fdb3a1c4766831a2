// The query flight recorder: a bounded, allocation-cheap event log of a
// transaction's full lifecycle across the discovery plane. Where the span
// ring (trace.go) answers "how long did each hop take", the flight
// recorder answers the operator question "what exactly happened to THIS
// query" — every fan-out, retransmission, breaker trip, streamed item and
// the closing summary, in order, keyed by transaction ID.
//
// Recording is a single mutex-guarded append of a small value into a
// per-transaction slice; transactions are retained in an insertion-order
// ring so a busy node cannot grow memory without bound. Queries that
// finish slow (first item past the SLO target) or incomplete are copied
// into a second ring, the slowlog — the operator's entry point: slowlog
// names the suspect transaction, /debug/query/<tx> replays its life.

package telemetry

import (
	"sync"
	"time"
)

// Flight event kinds. String constants keep the JSON self-describing and
// cost nothing to record.
const (
	// FlightSubmit marks the originator accepting a query (peer = entry).
	FlightSubmit = "submit"
	// FlightReceived marks a query message arriving on a node (n = hop).
	FlightReceived = "received"
	// FlightDuplicate marks a loop-detected duplicate query.
	FlightDuplicate = "duplicate"
	// FlightExpired marks a query dropped past its loop deadline.
	FlightExpired = "dropped-expired"
	// FlightPlanned marks the registry planning a local evaluation
	// (note = chosen plan: index/scan pushdown or the view path).
	FlightPlanned = "planned"
	// FlightPlanFallback marks a local evaluation whose shape the pushdown
	// planner rejected, falling back to the interpreter over a pinned
	// tuple-set snapshot, however the result is delivered (note =
	// "interpreted").
	FlightPlanFallback = "plan-fallback"
	// FlightViewHit marks a local evaluation that pinned an already-current
	// tuple-set snapshot.
	FlightViewHit = "view-hit"
	// FlightViewMiss marks a local evaluation that first had to advance its
	// tuple-set snapshot.
	FlightViewMiss = "view-miss"
	// FlightEval marks a finished local evaluation (n = hits).
	FlightEval = "eval"
	// FlightForward marks a child query sent to a neighbor (peer = child).
	FlightForward = "forward"
	// FlightRetransmit marks a retransmission (peer = target, n = budget left).
	FlightRetransmit = "retransmit"
	// FlightBreakerSkip marks a neighbor skipped on an open circuit.
	FlightBreakerSkip = "breaker-skip"
	// FlightBreakerOpen marks a neighbor circuit tripping open.
	FlightBreakerOpen = "breaker-open"
	// FlightPartial marks a partial result arriving (peer = child, n = items).
	FlightPartial = "partial"
	// FlightChildFinal marks a child's final answer (n = subtree hits).
	FlightChildFinal = "child-final"
	// FlightNodeFinal marks a node sending its final upstream (n = subtree hits).
	FlightNodeFinal = "node-final"
	// FlightAbort marks the dynamic abort timer firing on a node.
	FlightAbort = "abort"
	// FlightClose marks a KindClose cancelling the transaction on a node.
	FlightClose = "close"
	// FlightItem marks one result item reaching the originator (n = count so far).
	FlightItem = "item"
	// FlightFirstItem marks the first result item reaching the originator.
	FlightFirstItem = "first-item"
	// FlightNetSend marks the transport accepting a message (note = kind).
	FlightNetSend = "net-send"
	// FlightStreamItem marks an item leaving the HTTP edge (n = count so far).
	FlightStreamItem = "stream-item"
	// FlightStreamClose marks the HTTP edge writing its summary trailer.
	FlightStreamClose = "stream-close"
	// FlightRouted marks a shard router dispatching work to a shard
	// (peer = shard, note = "write", "single-shard" or "scatter").
	FlightRouted = "routed"
	// FlightShardError marks a shard failing mid-request on the router
	// (peer = shard, note = error text) — the event behind a
	// complete="false" merged stream.
	FlightShardError = "shard-error"
	// FlightTenantAdmit marks the tenant gate admitting a request
	// (peer = tenant, n = tenant in-flight after admission, note = class).
	FlightTenantAdmit = "tenant-admit"
	// FlightTenantShed marks the tenant gate shedding a request because
	// the admission queue saturated (peer = tenant, note = class).
	FlightTenantShed = "tenant-shed"
	// FlightTenantThrottle marks the tenant gate rejecting a request on a
	// per-tenant quota (peer = tenant, note = "rate" or "concurrency").
	FlightTenantThrottle = "tenant-throttle"
	// FlightSummaryKind is the closing accounting event written by Finish.
	FlightSummaryKind = "summary"
)

// FlightEvent is one recorded lifecycle event. Seq orders events globally
// within one recorder even when timestamps collide; it is assigned under
// the recorder's lock, so stored events ascend in Seq within every
// transaction.
type FlightEvent struct {
	Seq  uint64    `json:"seq"`            // recorder-wide sequence number
	At   time.Time `json:"at"`             // wall-clock time of the event
	Kind string    `json:"kind"`           // one of the Flight* constants
	Node string    `json:"node,omitempty"` // where the event happened
	Peer string    `json:"peer,omitempty"` // the other party, if any
	N    int64     `json:"n,omitempty"`    // kind-specific count
	Note string    `json:"note,omitempty"` // kind-specific annotation
}

// FlightSummary is the closing accounting of one transaction — what Finish
// records and what the slowlog retains.
type FlightSummary struct {
	TxID           string        `json:"tx"`               // transaction ID
	At             time.Time     `json:"at"`               // completion time
	FirstItem      time.Duration `json:"first_item_ns"`    // latency to first item (0 = none)
	Elapsed        time.Duration `json:"elapsed_ns"`       // total latency
	Items          int           `json:"items"`            // result items delivered
	Complete       bool          `json:"complete"`         // nothing known missing
	Aborted        bool          `json:"aborted"`          // deadline cut it short
	NodesContacted int           `json:"nodes_contacted"`  // fan-out accounting
	NodesResponded int           `json:"nodes_responded"`  // fan-out accounting
	Err            string        `json:"err,omitempty"`    // downstream failure notes
	Reason         string        `json:"reason,omitempty"` // slowlog admission reason
}

// FlightInfo is the queryable snapshot of one transaction's recording —
// the /debug/query/<tx> response body.
type FlightInfo struct {
	TxID    string         `json:"tx"`                // transaction ID
	Events  []FlightEvent  `json:"events"`            // lifecycle events, in order
	Dropped int            `json:"dropped,omitempty"` // events lost to the per-tx cap
	Summary *FlightSummary `json:"summary,omitempty"` // closing accounting, if finished
}

// FlightConfig tunes a FlightRecorder.
type FlightConfig struct {
	// Capacity bounds how many transactions are retained; the oldest is
	// evicted when a new transaction arrives at the cap. Zero means 256.
	Capacity int
	// EventsPerTx bounds the events retained per transaction; further
	// events are counted as dropped. Zero means 512.
	EventsPerTx int
	// SlowlogCapacity bounds the slowlog ring. Zero means 64.
	SlowlogCapacity int
	// SlowThreshold admits a finished transaction into the slowlog when
	// its first-item latency exceeds it (or when it finished incomplete).
	// This is normally the first-item SLO target. Zero means 250ms.
	SlowThreshold time.Duration
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.EventsPerTx <= 0 {
		c.EventsPerTx = 512
	}
	if c.SlowlogCapacity <= 0 {
		c.SlowlogCapacity = 64
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// flightTx is the mutable per-transaction record inside the recorder.
type flightTx struct {
	events  []FlightEvent
	dropped int
	summary *FlightSummary
}

// FlightRecorder records per-transaction lifecycle events into bounded
// rings. A nil *FlightRecorder is a valid disabled recorder: every method
// is a cheap no-op, so instrumentation points need no branching.
type FlightRecorder struct {
	cfg FlightConfig

	mu    sync.Mutex
	seq   uint64 // last sequence number handed out
	txs   map[string]*flightTx
	order []string // tx eviction ring, insertion order
	next  int
	slow  []FlightSummary // slowlog ring
	snext int
	total int // slowlog entries ever admitted
}

// NewFlightRecorder creates a recorder with the given bounds.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{
		cfg:   cfg,
		txs:   make(map[string]*flightTx, cfg.Capacity),
		order: make([]string, cfg.Capacity),
	}
}

// SlowThreshold returns the slowlog admission threshold (0 on nil).
func (fr *FlightRecorder) SlowThreshold() time.Duration {
	if fr == nil {
		return 0
	}
	return fr.cfg.SlowThreshold
}

// getLocked returns (creating if needed) the record for tx, evicting the
// oldest transaction at capacity. fr.mu must be held.
func (fr *FlightRecorder) getLocked(tx string) *flightTx {
	if t, ok := fr.txs[tx]; ok {
		return t
	}
	if old := fr.order[fr.next]; old != "" {
		delete(fr.txs, old)
	}
	fr.order[fr.next] = tx
	fr.next = (fr.next + 1) % len(fr.order)
	t := &flightTx{events: make([]FlightEvent, 0, 16)}
	fr.txs[tx] = t
	return t
}

// Record appends one event to tx's flight log. Safe on nil; events past
// the per-transaction cap are counted, not stored.
func (fr *FlightRecorder) Record(tx, kind, node, peer string, n int64, note string) {
	if fr == nil || tx == "" {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.appendLocked(tx, FlightEvent{
		At: fr.cfg.Now(), Kind: kind, Node: node, Peer: peer, N: n, Note: note,
	})
}

// appendLocked stamps ev with the next sequence number and appends it to
// tx's log. Sequencing and appending share one critical section: taking
// the number outside it lets two recorders append in the opposite order of
// their numbers. fr.mu must be held.
func (fr *FlightRecorder) appendLocked(tx string, ev FlightEvent) *flightTx {
	fr.seq++
	ev.Seq = fr.seq
	t := fr.getLocked(tx)
	if len(t.events) < fr.cfg.EventsPerTx {
		t.events = append(t.events, ev)
	} else {
		t.dropped++
	}
	return t
}

// Finish closes tx's recording with its summary: a FlightSummaryKind event
// is appended, the summary is attached for /debug/query/<tx>, and slow or
// incomplete transactions are admitted into the slowlog.
func (fr *FlightRecorder) Finish(tx string, sum FlightSummary) {
	if fr == nil || tx == "" {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	sum.TxID = tx
	if sum.At.IsZero() {
		sum.At = fr.cfg.Now()
	}
	switch {
	case sum.FirstItem > fr.cfg.SlowThreshold:
		sum.Reason = "slow-first-item"
	case sum.Items == 0 && sum.Elapsed > fr.cfg.SlowThreshold:
		sum.Reason = "slow-empty"
	case !sum.Complete:
		sum.Reason = "incomplete"
	}
	note := "complete"
	if !sum.Complete {
		note = "incomplete"
	}
	if sum.Aborted {
		note += ",aborted"
	}
	t := fr.appendLocked(tx, FlightEvent{
		At: sum.At, Kind: FlightSummaryKind, N: int64(sum.Items), Note: note,
	})
	s := sum
	t.summary = &s
	if sum.Reason != "" {
		if len(fr.slow) < fr.cfg.SlowlogCapacity {
			fr.slow = append(fr.slow, sum)
		} else {
			fr.slow[fr.snext] = sum
		}
		fr.snext = (fr.snext + 1) % fr.cfg.SlowlogCapacity
		fr.total++
	}
}

// Tx returns the recorded flight of one transaction, or nil when the
// recorder is disabled or the transaction fell off the ring.
func (fr *FlightRecorder) Tx(tx string) *FlightInfo {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	t, ok := fr.txs[tx]
	if !ok {
		return nil
	}
	info := &FlightInfo{
		TxID:    tx,
		Events:  append([]FlightEvent(nil), t.events...),
		Dropped: t.dropped,
	}
	if t.summary != nil {
		s := *t.summary
		info.Summary = &s
	}
	return info
}

// Slowlog returns the retained slow/incomplete transaction summaries, most
// recent first, plus how many were ever admitted (the ring may have
// evicted older ones).
func (fr *FlightRecorder) Slowlog() ([]FlightSummary, int) {
	if fr == nil {
		return nil, 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]FlightSummary, 0, len(fr.slow))
	// Walk the ring backwards from the most recently written slot.
	for i := 0; i < len(fr.slow); i++ {
		idx := (fr.snext - 1 - i + len(fr.slow)) % len(fr.slow)
		out = append(out, fr.slow[idx])
	}
	return out, fr.total
}
