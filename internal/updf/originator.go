package updf

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/telemetry"
	"wsda/internal/xq"
)

// QuerySpec describes one network query submission.
type QuerySpec struct {
	Query string // XQuery text
	Entry string // address of the entry node (agent model) — may be the
	// originator's own co-located node (servent model)

	Mode     pdp.ResponseMode // how results travel back (routed/direct/metadata/referral)
	Pipeline bool             // stream items across nodes (Routed mode only)

	// Scope.
	// Radius is the hop budget; 0 = entry node only; -1 = unbounded. Like
	// Gnutella TTLs, the reachable set equals the BFS horizon only when
	// shortest-path messages arrive first; under skewed latencies the
	// horizon is an upper bound.
	Radius int
	Policy string // neighbor selection policy (default flood)
	Fanout int    // per-hop neighbor bound (0 = all)

	// LoopTimeout is the static loop timeout, relative to submission.
	// Default 10s.
	LoopTimeout time.Duration
	// AbortTimeout is the user's answer deadline (dynamic abort timeout at
	// the entry node), relative to submission. Default = LoopTimeout/2.
	AbortTimeout time.Duration

	// OnItem, if set, streams result items as they arrive; returning false
	// closes the transaction network-wide.
	OnItem func(item xq.Item, source string) bool

	// OnTx, if set, is called with the minted transaction ID before the
	// query enters the network, so callers (e.g. the HTTP stream edge) can
	// correlate their own instrumentation with the flight recording.
	OnTx func(tx string)

	// Cancel, if set, aborts the submission early when it becomes
	// readable or closed (e.g. an HTTP request context's Done channel):
	// the transaction is closed network-wide with KindClose instead of
	// running to the abort deadline, and the partial ResultSet comes back
	// with Complete forced to false. Nil never cancels.
	Cancel <-chan struct{}

	// MaxRetries retransmits the entry query while no final has arrived
	// from the entry node — the first hop's counterpart of the per-node
	// child retransmission (Config.MaxRetries). Zero disables.
	MaxRetries int
	// RetryInterval is the delay before the first entry retransmission;
	// successive delays double. Zero means 200ms when MaxRetries > 0.
	RetryInterval time.Duration
}

// ResultSet is the outcome of one network query.
type ResultSet struct {
	TxID  string      // the query's transaction ID
	Items xq.Sequence // every delivered result item
	// Sources counts items per producing node address (where known).
	Sources map[string]int
	// ExpectedHits is the subtree hit total the network promised: receipts
	// report it in Direct and Metadata modes, and the entry node's routed
	// final carries it as the count of items relayed upstream — Submit
	// drains until the delivered items reach it, so pipelined partials
	// that race the final over a reordering transport are not dropped.
	ExpectedHits int
	// TimeToFirst is the latency until the first item arrived (0 if none).
	TimeToFirst time.Duration
	// Elapsed is the total latency until completion.
	Elapsed time.Duration
	// Aborted reports that the deadline cut collection short.
	Aborted bool
	// NodesVisited is the number of distinct responding nodes (Referral
	// mode: nodes queried).
	NodesVisited int
	// Errs carries best-effort downstream failure notes.
	Errs []string

	// Partial-result accounting from the entry node's final (see
	// pdp.Message): how many nodes the query tried to reach, how many
	// answered, and whether the network believes nothing was lost. An
	// originator-side abort forces Complete to false.
	NodesContacted int  // nodes the query reached or tried to reach
	NodesResponded int  // nodes whose final answer arrived
	Complete       bool // true only when nothing is known to be missing
}

// Completeness returns responded/contacted as a ratio in [0, 1] — the
// value fed into the wsda_query_completeness histogram. It reports 0 when
// no accounting arrived (e.g. the query never reached the entry node).
func (rs *ResultSet) Completeness() float64 {
	if rs.NodesContacted <= 0 {
		return 0
	}
	return float64(rs.NodesResponded) / float64(rs.NodesContacted)
}

// Originator submits queries into a UPDF network and collects responses.
// One Originator can run many concurrent submissions; each gets a unique
// transaction ID.
type Originator struct {
	addr string
	net  pdp.Network
	now  func() time.Time

	mu      sync.Mutex
	pending map[string]chan *pdp.Message

	seq atomic.Int64

	// Telemetry handles; nil until SetTelemetry/SetFlight/SetSLO.
	flight        *telemetry.FlightRecorder
	slo           *telemetry.SLO
	submitSeconds *telemetry.Histogram
	firstSeconds  *telemetry.Histogram
	completeness  *telemetry.Histogram
}

// NewOriginator registers an originator endpoint on the network.
func NewOriginator(addr string, net pdp.Network, now func() time.Time) (*Originator, error) {
	if now == nil {
		now = time.Now
	}
	o := &Originator{addr: addr, net: net, now: now, pending: make(map[string]chan *pdp.Message)}
	if err := net.Register(addr, o.handle); err != nil {
		return nil, err
	}
	return o, nil
}

// SetTelemetry wires metrics into the originator: end-to-end,
// time-to-first-item and completeness histograms per submission. Call it
// during setup; nil disables them.
func (o *Originator) SetTelemetry(m *telemetry.Metrics) {
	if m != nil {
		o.submitSeconds = m.HistogramVec("wsda_updf_submit_seconds",
			"End-to-end latency of network query submissions.", nil, "originator").With(o.addr)
		o.firstSeconds = m.HistogramVec("wsda_updf_time_to_first_seconds",
			"Latency until the first result item of a submission.", nil, "originator").With(o.addr)
		o.completeness = m.Histogram("wsda_query_completeness",
			"Nodes-responded over nodes-contacted per submission (1 = nothing lost).",
			[]float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1})
	}
}

// SetFlight wires a flight recorder into the originator: every submission
// records its lifecycle (submit, first-item, items, entry retransmits) and
// finishes the recording with the result-set summary, which is also what
// gates the transaction into /debug/slowlog. Nil disables.
func (o *Originator) SetFlight(fr *telemetry.FlightRecorder) { o.flight = fr }

// SetSLO wires an SLO engine into the originator: each finished submission
// feeds the first-item and completeness objectives. Nil disables.
func (o *Originator) SetSLO(s *telemetry.SLO) { o.slo = s }

// Addr returns the originator's network address.
func (o *Originator) Addr() string { return o.addr }

// Close unregisters the originator.
func (o *Originator) Close() { o.net.Unregister(o.addr) }

func (o *Originator) handle(m *pdp.Message) {
	o.mu.Lock()
	ch, ok := o.pending[m.TxID]
	o.mu.Unlock()
	if !ok {
		return // late message for a finished submission
	}
	// The channel is buffered generously; a stuck consumer sheds load
	// rather than blocking the delivery goroutine.
	select {
	case ch <- m:
	default:
	}
}

func (o *Originator) newTx() string {
	return fmt.Sprintf("%s#%d", o.addr, o.seq.Add(1))
}

func (spec *QuerySpec) withDefaults() QuerySpec {
	s := *spec
	if s.LoopTimeout == 0 {
		s.LoopTimeout = 10 * time.Second
	}
	if s.AbortTimeout == 0 {
		s.AbortTimeout = s.LoopTimeout / 2
	}
	if s.Policy == "" {
		s.Policy = PolicyFlood
	}
	return s
}

// Submit runs one query to completion (final message, deadline, or OnItem
// cancellation) and returns the collected results.
func (o *Originator) Submit(spec QuerySpec) (*ResultSet, error) {
	s := spec.withDefaults()
	if s.Entry == "" {
		return nil, fmt.Errorf("updf: query needs an entry node")
	}
	if s.Mode == pdp.Referral {
		return o.submitReferral(s)
	}
	c := o.begin(s)
	defer o.listen(c.tx, nil)
	tx, ch, rs := c.tx, c.ch, c.rs
	loopDeadline := c.start.Add(s.LoopTimeout)
	abortDeadline := c.start.Add(s.AbortTimeout)
	queryMsg := &pdp.Message{
		Kind: pdp.KindQuery, TxID: tx, From: o.addr, To: s.Entry,
		Query: s.Query, Mode: s.Mode, Origin: o.addr, Pipeline: s.Pipeline,
		Scope: pdp.Scope{
			Radius: s.Radius, LoopTimeout: loopDeadline, AbortTimeout: abortDeadline,
			Policy: s.Policy, Fanout: s.Fanout,
		},
	}
	if err := o.net.Send(queryMsg); err != nil {
		return nil, fmt.Errorf("updf: submit to %s: %w", s.Entry, err)
	}

	// The originator grants itself a grace period beyond the entry node's
	// abort deadline so finals emitted exactly at the deadline can arrive.
	timer := time.NewTimer(s.AbortTimeout + s.AbortTimeout/2 + 50*time.Millisecond)
	defer timer.Stop()

	// Entry-link retransmission: while the entry node has not delivered its
	// final, resend the query on an exponential schedule. The entry node
	// treats resends idempotently (in-flight transactions ignore them;
	// finalized ones re-answer with the recorded final), so a lost first
	// hop no longer kills the whole submission. The timer fires into the
	// collection loop below, keeping all retry state on this goroutine.
	var retryC <-chan time.Time
	var retryTimer *time.Timer
	retriesLeft := s.MaxRetries
	retryInterval := s.RetryInterval
	if retriesLeft > 0 {
		if retryInterval == 0 {
			retryInterval = 200 * time.Millisecond
		}
		retryTimer = time.NewTimer(retryInterval)
		defer retryTimer.Stop()
		retryC = retryTimer.C
	}

	entryFinal := false                 // entry node reported completion
	fetchesPending := map[string]bool{} // Metadata mode: outstanding fetches
	metaRecords := map[string]int{}     // Metadata mode: source -> hits
	metaHits := 0                       // Metadata mode: hits accounted for by records

	done := func() bool {
		if !entryFinal {
			return false
		}
		switch s.Mode {
		case pdp.Routed:
			// Pipelined partials travel on their own messages and may trail
			// the entry final on a reordering transport; the final's hit
			// count says how many items must arrive before returning.
			return len(rs.Items) >= rs.ExpectedHits
		case pdp.Direct:
			return len(rs.Items) >= rs.ExpectedHits
		case pdp.Metadata:
			// Receipts and relayed records race on independent links, so a
			// record may trail the entry receipt; the receipt's hit total
			// says how many hits the records must account for.
			return metaHits >= rs.ExpectedHits && len(fetchesPending) == 0
		}
		return true
	}

	closeTx := func() {
		_ = o.net.Send(&pdp.Message{Kind: pdp.KindClose, TxID: tx, From: o.addr, To: s.Entry})
	}

	for !done() {
		select {
		case m := <-ch:
			if m.Err != "" {
				rs.Errs = append(rs.Errs, m.From+": "+m.Err)
			}
			switch m.Kind {
			case pdp.KindResult:
				if s.Mode == pdp.Metadata && m.Source != "" && len(m.Items) == 0 && m.HitCount > 0 && !m.Final {
					// Metadata record from the count phase.
					if _, seen := metaRecords[m.Source]; !seen {
						metaRecords[m.Source] = m.HitCount
						metaHits += m.HitCount
						fetchesPending[m.Source] = true
						_ = o.net.Send(&pdp.Message{
							Kind: pdp.KindFetch, TxID: tx, From: o.addr, To: m.Source,
							Origin: o.addr,
						})
					}
				} else {
					if s.Mode == pdp.Metadata && m.Final && !fetchesPending[m.Source] {
						// A fetch answer we did not (or no longer) expect —
						// a retransmission or a response to a forged fetch.
						// Counting its items again would corrupt the result.
						continue
					}
					if !c.add(m.Items, m.Source) {
						closeTx()
						rs.Complete = false // cancelled by the consumer
						rs.NodesVisited = len(rs.Sources)
						return c.finish(), nil
					}
					if m.Final {
						switch {
						case s.Mode == pdp.Metadata:
							delete(fetchesPending, m.Source)
							if promised := metaRecords[m.Source]; m.Err != "" || len(m.Items) < promised {
								// Items are provably missing: the entry
								// receipt's Complete verdict must not survive.
								c.shortfall = true
								rs.Errs = append(rs.Errs, fmt.Sprintf(
									"%s: fetch delivered %d of %d promised items",
									m.Source, len(m.Items), promised))
							}
						case s.Mode == pdp.Routed && m.From == s.Entry:
							entryFinal = true
							rs.ExpectedHits = m.HitCount
							rs.NodesContacted = m.NodesContacted
							rs.NodesResponded = m.NodesResponded
							rs.Complete = m.Complete
						case s.Mode == pdp.Direct:
							// per-node final; counted via Sources
						}
					}
				}
			case pdp.KindReceipt:
				if m.Final && m.From == s.Entry {
					entryFinal = true
					rs.ExpectedHits = m.HitCount
					rs.NodesContacted = m.NodesContacted
					rs.NodesResponded = m.NodesResponded
					rs.Complete = m.Complete
				}
			}
		case <-retryC:
			if !entryFinal && retriesLeft > 0 {
				retriesLeft--
				o.flight.Record(tx, telemetry.FlightRetransmit, o.addr, s.Entry, int64(retriesLeft), "entry")
				_ = o.net.Send(queryMsg)
				if retriesLeft > 0 {
					retryInterval *= 2
					retryTimer.Reset(retryInterval)
				}
			}
		case <-s.Cancel:
			// The consumer went away (e.g. HTTP client disconnect): close
			// the transaction network-wide now instead of letting it run
			// to the abort deadline.
			closeTx()
			rs.Complete = false
			rs.NodesVisited = len(rs.Sources)
			return c.finish(), nil
		case <-timer.C:
			rs.Aborted = true
			rs.Complete = false
			closeTx()
			rs.NodesVisited = len(rs.Sources)
			return c.finish(), nil
		}
	}
	rs.NodesVisited = len(rs.Sources)
	return c.finish(), nil
}

// submitReferral drives the referral response mode: the originator itself
// expands the topology, querying one node at a time and following the
// neighbor links returned with each answer (thesis Ch. 6.4).
func (o *Originator) submitReferral(s QuerySpec) (*ResultSet, error) {
	c := o.begin(s)
	defer o.listen(c.tx, nil)
	tx, ch, rs := c.tx, c.ch, c.rs
	loopDeadline := c.start.Add(s.LoopTimeout)
	deadline := time.NewTimer(s.AbortTimeout)
	defer deadline.Stop()

	visited := map[string]bool{}
	depth := map[string]int{}
	outstanding := 0

	ask := func(addr string) {
		visited[addr] = true
		outstanding++
		// Referral queries execute on the target only; the per-node tx must
		// be unique because every node keeps per-tx loop-detection state.
		_ = o.net.Send(&pdp.Message{
			Kind: pdp.KindQuery, TxID: tx + "@" + addr, From: o.addr, To: addr,
			Query: s.Query, Mode: pdp.Referral, Origin: o.addr,
			Scope: pdp.Scope{Radius: 0, LoopTimeout: loopDeadline},
		})
	}
	// Replies are dispatched on their exact TxID, so each per-node ID is
	// routed to the submission's channel before its query goes out.
	askAll := func(addrs []string, d int) {
		for _, a := range addrs {
			if visited[a] {
				continue
			}
			if s.Radius >= 0 && d > s.Radius {
				continue
			}
			depth[a] = d
			o.listen(tx+"@"+a, ch)
			ask(a)
		}
	}
	defer func() {
		for a := range visited {
			o.listen(tx+"@"+a, nil)
		}
	}()

	askAll([]string{s.Entry}, 0)
	for outstanding > 0 {
		select {
		case m := <-ch:
			if m.Kind != pdp.KindResult {
				continue
			}
			outstanding--
			rs.NodesVisited++
			if m.Err != "" {
				rs.Errs = append(rs.Errs, m.From+": "+m.Err)
			}
			if !c.add(m.Items, m.Source) {
				return c.finish(), nil
			}
			askAll(m.Neighbors, depth[m.From]+1)
		case <-s.Cancel:
			// Consumer gone; referral queries are single-node and already
			// in flight, so there is nothing to close — stop expanding.
			rs.NodesContacted = len(visited)
			rs.NodesResponded = rs.NodesVisited
			rs.Complete = false
			return c.finish(), nil
		case <-deadline.C:
			rs.Aborted = true
			rs.NodesContacted = len(visited)
			rs.NodesResponded = rs.NodesVisited
			rs.Complete = false
			return c.finish(), nil
		}
	}
	// Every node the originator asked has answered: referral expansion has
	// exact accounting by construction.
	rs.NodesContacted = len(visited)
	rs.NodesResponded = rs.NodesVisited
	rs.Complete = true
	return c.finish(), nil
}

// collector is one submission's result collection, the same for every
// response mode: it appends items as they arrive and closes the
// submission's accounting once.
type collector struct {
	o      *Originator
	tx     string
	ch     chan *pdp.Message // the submission's replies
	start  time.Time
	onItem func(item xq.Item, source string) bool
	rs     *ResultSet
	// shortfall forces Complete false at finish: a Metadata fetch erred or
	// delivered fewer items than its record promised.
	shortfall bool
}

// begin mints a submission's transaction, routes its replies to the
// collector's channel, records the submit and starts the clock.
func (o *Originator) begin(s QuerySpec) *collector {
	c := &collector{o: o, tx: o.newTx(), ch: make(chan *pdp.Message, 4096), onItem: s.OnItem}
	if s.OnTx != nil {
		s.OnTx(c.tx)
	}
	o.listen(c.tx, c.ch)
	c.start = o.now()
	c.rs = &ResultSet{TxID: c.tx, Sources: make(map[string]int)}
	o.flight.Record(c.tx, telemetry.FlightSubmit, o.addr, s.Entry, int64(s.Radius), s.Mode.String())
	return c
}

// listen routes replies carrying tx to ch; a nil ch stops routing them.
func (o *Originator) listen(tx string, ch chan *pdp.Message) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ch == nil {
		delete(o.pending, tx)
	} else {
		o.pending[tx] = ch
	}
}

// add appends items from source, recording first-item and item flight
// events and streaming each to OnItem; false means OnItem asked to stop.
func (c *collector) add(items xq.Sequence, source string) bool {
	rs := c.rs
	for _, it := range items {
		if len(rs.Items) == 0 {
			rs.TimeToFirst = c.o.now().Sub(c.start)
			c.o.flight.Record(c.tx, telemetry.FlightFirstItem, c.o.addr, source, 1, "")
		} else {
			c.o.flight.Record(c.tx, telemetry.FlightItem, c.o.addr, source, int64(len(rs.Items)+1), "")
		}
		rs.Items = append(rs.Items, it)
		if source != "" {
			rs.Sources[source]++
		}
		if c.onItem != nil && !c.onItem(it, source) {
			return false
		}
	}
	return true
}

// finish stamps the elapsed time and feeds every submission's accounting:
// the latency and completeness histograms, the flight summary and the SLO.
func (c *collector) finish() *ResultSet {
	o, rs := c.o, c.rs
	rs.Elapsed = o.now().Sub(c.start)
	if c.shortfall {
		rs.Complete = false
	}
	o.submitSeconds.ObserveDuration(rs.Elapsed)
	if rs.TimeToFirst > 0 {
		o.firstSeconds.ObserveDuration(rs.TimeToFirst)
	}
	o.completeness.Observe(rs.Completeness())
	o.flight.Finish(c.tx, telemetry.FlightSummary{
		FirstItem: rs.TimeToFirst, Elapsed: rs.Elapsed, Items: len(rs.Items),
		Complete: rs.Complete, Aborted: rs.Aborted,
		NodesContacted: rs.NodesContacted, NodesResponded: rs.NodesResponded,
		Err: strings.Join(rs.Errs, "; "),
	})
	if o.slo != nil {
		// A query with no items is scored on its total elapsed time: fast
		// empty completions pass, slow or aborted ones burn budget.
		d := rs.TimeToFirst
		if d == 0 {
			d = rs.Elapsed
		}
		o.slo.ObserveFirstItem(d)
		o.slo.ObserveCompleteness(rs.Completeness())
	}
	return rs
}
