// Hop trees rebuilt from the flight recorder. There is no second
// recorder: /debug/traces reads the same per-transaction events as
// /debug/query/<tx> and nests them by the transaction's own structure —
// the originator's submit, one residency per node the query reached,
// parented at the node that sent it, and one evaluation inside each.

package telemetry

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpanInfo is the JSON form of one span of a rebuilt hop tree.
type SpanInfo struct {
	ID         uint64            `json:"id"`                 // Seq of the flight event that opened the span
	Parent     uint64            `json:"parent,omitempty"`   // parent span ID (0 for roots)
	Name       string            `json:"name"`               // operation name
	Start      time.Time         `json:"start"`              // wall-clock start
	DurationUS int64             `json:"duration_us"`        // duration in microseconds
	Attrs      map[string]string `json:"attrs,omitempty"`    // span annotations
	Children   []*SpanInfo       `json:"children,omitempty"` // child spans, by start time
}

// TraceInfo is one transaction's hop tree, rebuilt from its flight events.
type TraceInfo struct {
	TraceID string      `json:"trace"`             // the transaction ID
	Start   time.Time   `json:"start"`             // earliest span start
	Spans   int         `json:"spans"`             // total spans in the tree
	Dropped int         `json:"dropped,omitempty"` // events lost to the per-transaction cap
	Roots   []*SpanInfo `json:"roots"`             // parentless spans, by start time
}

// Trace rebuilds one transaction's hop tree, or nil when the recorder is
// disabled or the transaction fell off the ring.
func (fr *FlightRecorder) Trace(tx string) *TraceInfo {
	info := fr.Tx(tx)
	if info == nil {
		return nil
	}
	return buildTrace(info)
}

// Traces rebuilds the hop trees of the limit most recently started
// transactions (all retained ones when limit <= 0), most recent first.
func (fr *FlightRecorder) Traces(limit int) []*TraceInfo {
	if fr == nil {
		return nil
	}
	var infos []*FlightInfo
	fr.mu.Lock()
	for i := 1; i <= len(fr.order) && (limit <= 0 || len(infos) < limit); i++ {
		tx := fr.order[(fr.next-i+len(fr.order))%len(fr.order)]
		if tx == "" {
			break
		}
		infos = append(infos, fr.txLocked(tx))
	}
	fr.mu.Unlock()
	out := make([]*TraceInfo, len(infos))
	for i, info := range infos {
		out[i] = buildTrace(info)
	}
	return out
}

// span is a SpanInfo under construction.
type span struct {
	*SpanInfo
	peer   string // who sent the query that opened it
	parent *span
	closed bool
	busy   bool // a residency that accepted its query: a duplicate no longer answers it
}

// traceBuilder nests one transaction's events, in Seq order:
//   - submit opens the updf.submit root; the summary closes it;
//   - a node's first received (from a peer) opens its updf.query
//     residency; node-final, close, or a duplicate or dropped-expired
//     answering that very received closes it. A later received of the node
//     is a leaf under its sender, so a node has one residency and the
//     (node, peer) edges cannot loop;
//   - eval is a updf.eval child of its node's residency;
//   - any other event of a node with a residency or the submit is counted
//     on it; events of no residency — the HTTP edge's, a registry's under
//     its own name, the router's — hang under the transaction's root as
//     point spans. Without a submit or a residency, the first of them
//     opens a synthetic wsda.request root.
type traceBuilder struct {
	info     *FlightInfo
	spans    []*span
	owner    map[string]*span // submit or residency, by node
	lastRecv map[string]*span // the span of each node's latest received
	submit   *span
	orphans  []*FlightEvent
	last     time.Time // the latest event: where a span left open ends
}

func buildTrace(info *FlightInfo) *TraceInfo {
	b := &traceBuilder{info: info, owner: map[string]*span{}, lastRecv: map[string]*span{}}
	for i := range info.Events {
		b.add(&info.Events[i])
	}
	return b.finish()
}

func (b *traceBuilder) open(ev *FlightEvent, name string) *span {
	s := &span{SpanInfo: &SpanInfo{ID: ev.Seq, Name: name, Start: ev.At, Attrs: map[string]string{}}, peer: ev.Peer}
	b.spans = append(b.spans, s)
	return s
}

func (s *span) end(at time.Time) {
	s.closed = true
	if d := at.Sub(s.Start); d > 0 {
		s.DurationUS = d.Microseconds()
	}
}

func (b *traceBuilder) add(ev *FlightEvent) {
	if ev.At.After(b.last) {
		b.last = ev.At
	}
	owner := b.owner[ev.Node]
	switch ev.Kind {
	case FlightSubmit:
		if b.submit == nil {
			s := b.open(ev, "updf.submit")
			s.Attrs["originator"], s.Attrs["entry"], s.Attrs["mode"] = ev.Node, ev.Peer, ev.Note
			s.Attrs["radius"] = strconv.FormatInt(ev.N, 10)
			b.submit, b.owner[ev.Node] = s, s
			return
		}
	case FlightReceived:
		if ev.Peer == "" {
			break // an HTTP edge's arrival, not a hop
		}
		s := b.open(ev, "updf.query")
		s.Attrs["node"], s.Attrs["from"], s.Attrs["hop"] = ev.Node, ev.Peer, strconv.FormatInt(ev.N, 10)
		if owner == nil {
			b.owner[ev.Node] = s
		} else {
			s.Name = "updf.received"
		}
		b.lastRecv[ev.Node] = s
		return
	case FlightDuplicate, FlightExpired:
		if l := b.lastRecv[ev.Node]; l != nil && l.peer == ev.Peer && !l.busy && !l.closed {
			l.Attrs["outcome"] = ev.Kind
			l.end(ev.At)
			return
		}
		s := b.open(ev, "updf."+ev.Kind)
		s.Attrs["node"], s.Attrs["from"] = ev.Node, ev.Peer
		s.end(ev.At)
		return
	case FlightEval:
		s := b.open(ev, "updf.eval")
		s.Start = ev.At.Add(-ev.Dur)
		s.end(ev.At)
		s.Attrs["hits"] = strconv.FormatInt(ev.N, 10)
		if ev.Note != "" {
			s.Attrs["note"] = ev.Note
		}
		if owner != nil {
			s.parent, owner.busy = owner, true
			owner.Attrs["local_hits"] = s.Attrs["hits"]
		}
		return
	case FlightNodeFinal:
		if owner != nil && owner != b.submit {
			owner.Attrs["subtree_hits"] = strconv.FormatInt(ev.N, 10)
			status, accounting, _ := strings.Cut(ev.Note, " ")
			status, reason, _ := strings.Cut(status, ",")
			owner.Attrs["complete"] = strconv.FormatBool(status == "complete")
			if reason != "" {
				owner.Attrs["outcome"] = reason
			}
			for _, kv := range strings.Fields(accounting) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					owner.Attrs["nodes_"+k] = v
				}
			}
			owner.end(ev.At)
			return
		}
	case FlightClose:
		if owner != nil && owner != b.submit && !owner.closed {
			owner.Attrs["outcome"] = "closed"
			owner.end(ev.At)
			return
		}
	}
	if owner != nil && ev.Kind != FlightSummaryKind {
		owner.busy = true
		n, _ := strconv.Atoi(owner.Attrs[ev.Kind])
		owner.Attrs[ev.Kind] = strconv.Itoa(n + 1)
		return
	}
	b.orphans = append(b.orphans, ev)
}

// finish links parents, picks the root, hangs the orphans under it and
// closes what is still open at the last event.
func (b *traceBuilder) finish() *TraceInfo {
	var root *span
	for _, s := range b.spans {
		if s.parent == nil && s.peer != "" && s != b.submit {
			// A residency or leaf nests under its sender's residency (or the
			// submit) when that one opened first; a sender in another process
			// leaves it a root.
			if p := b.owner[s.peer]; p != nil && p.ID < s.ID {
				s.parent = p
			}
		}
		if s.parent == nil && s.Name == "updf.query" && root == nil {
			root = s
		}
	}
	if b.submit != nil {
		root = b.submit
	}
	for _, ev := range b.orphans {
		if ev.Kind == FlightSummaryKind && b.info.Summary != nil && root != nil && root.Name != "updf.query" {
			continue // applied to the root below
		}
		if root == nil {
			root = b.open(ev, "wsda.request")
			root.Attrs["event"] = ev.Kind
			setEventAttrs(root, ev)
			continue
		}
		p := b.open(ev, ev.Kind)
		setEventAttrs(p, ev)
		p.end(ev.At)
	}
	for _, s := range b.spans {
		if s.parent == nil && s != root && s != b.submit && s.Name != "updf.query" {
			s.parent = root // points, evals of no residency, leaves of no local sender
		}
	}
	if sum := b.info.Summary; sum != nil && root != nil && root.Name != "updf.query" {
		root.Attrs["items"] = strconv.Itoa(sum.Items)
		root.Attrs["complete"] = strconv.FormatBool(sum.Complete)
		root.Attrs["aborted"] = strconv.FormatBool(sum.Aborted)
		root.Attrs["nodes_contacted"] = strconv.Itoa(sum.NodesContacted)
		root.Attrs["nodes_responded"] = strconv.Itoa(sum.NodesResponded)
		if sum.FirstItem > 0 {
			root.Attrs["first_item_us"] = strconv.FormatInt(sum.FirstItem.Microseconds(), 10)
		}
		if sum.Err != "" {
			root.Attrs["err"] = sum.Err
		}
		root.end(sum.At)
	}

	ti := &TraceInfo{TraceID: b.info.TxID, Spans: len(b.spans), Dropped: b.info.Dropped}
	for _, s := range b.spans {
		if !s.closed {
			s.Attrs["open"] = "true"
			s.end(b.last)
		}
		if s.parent != nil {
			s.Parent = s.parent.ID
			s.parent.Children = append(s.parent.Children, s.SpanInfo)
		} else {
			ti.Roots = append(ti.Roots, s.SpanInfo)
		}
		if ti.Start.IsZero() || s.Start.Before(ti.Start) {
			ti.Start = s.Start
		}
	}
	for _, s := range b.spans {
		sortSpans(s.Children)
	}
	sortSpans(ti.Roots)
	return ti
}

// setEventAttrs annotates a span opened by an event of no residency with
// that event's own fields.
func setEventAttrs(s *span, ev *FlightEvent) {
	for k, v := range map[string]string{"node": ev.Node, "peer": ev.Peer, "note": ev.Note} {
		if v != "" {
			s.Attrs[k] = v
		}
	}
	if ev.N != 0 {
		s.Attrs["n"] = strconv.FormatInt(ev.N, 10)
	}
}

func sortSpans(s []*SpanInfo) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start.Equal(s[j].Start) {
			return s[i].ID < s[j].ID
		}
		return s[i].Start.Before(s[j].Start)
	})
}
