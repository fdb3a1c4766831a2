package pdp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// Kind discriminates PDP message types.
type Kind int

// The concrete PDP messages (thesis Ch. 7.4).
const (
	KindQuery   Kind = iota // forward a query into the network
	KindResult              // carry (partial) results toward a consumer
	KindReceipt             // completion receipt flowing back to the parent
	KindFetch               // originator pulls full results after metadata
	KindClose               // abort an in-flight transaction
	KindPing                // neighbor liveness / referral probe
	KindPong                // ping answer carrying neighbor links
)

var kindNames = [...]string{"query", "result", "receipt", "fetch", "close", "ping", "pong"}

// String returns the wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

func kindFromString(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("pdp: unknown message kind %q", s)
}

// ResponseMode selects how results travel back to the originator (thesis
// Ch. 6.4).
type ResponseMode int

const (
	// Routed: results flow hop-by-hop back along the query path.
	Routed ResponseMode = iota
	// Direct: every matching node sends its results straight to the
	// originator; only receipts are routed.
	Direct
	// Metadata: routed responses carry hit counts only; the originator then
	// fetches full results directly from nodes that reported hits.
	Metadata
	// Referral: nodes do not forward the query; they answer locally and
	// refer the originator to their neighbors, which the originator then
	// queries itself.
	Referral
)

var modeNames = [...]string{"routed", "direct", "metadata", "referral"}

// String returns the wire name of the mode.
func (m ResponseMode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

func modeFromString(s string) (ResponseMode, error) {
	for i, n := range modeNames {
		if n == s {
			return ResponseMode(i), nil
		}
	}
	return 0, fmt.Errorf("pdp: unknown response mode %q", s)
}

// Scope is the physical reach of a query (thesis Ch. 6.6–6.7): it prunes
// the link topology, bounds time, and selects neighbors. The logical query
// itself stays scope-insensitive.
type Scope struct {
	// Radius is the remaining hop budget; each forward decrements it. 0
	// executes only on the receiving node; negative means unbounded.
	Radius int
	// LoopTimeout is the static loop timeout: an absolute deadline after
	// which any node silently drops the query. It also bounds node state
	// table retention.
	LoopTimeout time.Time
	// AbortTimeout is the dynamic abort timeout: the deadline by which this
	// node must have delivered whatever it has. Each hop shrinks it (see
	// updf), so partial results can travel back before the originator's
	// own deadline passes.
	AbortTimeout time.Time
	// Policy names the neighbor selection policy ("flood", "random").
	Policy string
	// Fanout bounds how many neighbors are selected per hop (0 = all).
	Fanout int
}

// Message is one PDP protocol data unit.
type Message struct {
	Kind Kind   // message kind (query/result/receipt/...)
	TxID string // transaction identifier; constant across one query's flood
	From string // sender node address
	To   string // receiver node address
	Hop  int    // hops traveled so far

	// Query fields.
	Query    string       // query text (XQuery)
	Mode     ResponseMode // response mode
	Origin   string       // originator address for Direct/Metadata/Fetch
	Pipeline bool         // stream results item-by-item across nodes
	Scope    Scope        // radius and timeout bounds, adjusted per hop

	// Result fields.
	Items    xq.Sequence // result items (empty for pure receipts)
	HitCount int         // number of hits (Metadata mode carries counts only)
	Source   string      // node that produced the items (survives relaying)
	Final    bool        // no more results will follow from this subtree
	Err      string      // downstream failure note (best effort)

	// Partial-result accounting (final results and receipts only): how many
	// nodes the subtree behind this response tried to reach, how many
	// actually answered, and whether the subtree believes no results were
	// lost to drops, timeouts, or skipped peers. Aggregated hop-by-hop so
	// the originator can report end-to-end completeness.
	NodesContacted int  // nodes this subtree attempted to contact (incl. self)
	NodesResponded int  // nodes that delivered an answer (incl. self)
	Complete       bool // true when no subtree results were lost

	// Referral/Pong fields.
	Neighbors []string // neighbor addresses offered to the originator
}

// ToXML encodes the message for the wire.
func (m *Message) ToXML() *xmldoc.Node {
	el := xmldoc.NewElement("pdp")
	el.SetAttr("kind", m.Kind.String())
	el.SetAttr("tx", m.TxID)
	el.SetAttr("from", m.From)
	el.SetAttr("to", m.To)
	el.SetAttr("hop", strconv.Itoa(m.Hop))
	if m.Kind == KindQuery || m.Kind == KindFetch {
		el.SetAttr("mode", m.Mode.String())
		if m.Origin != "" {
			el.SetAttr("origin", m.Origin)
		}
		if m.Pipeline {
			el.SetAttr("pipeline", "true")
		}
		sc := xmldoc.NewElement("scope")
		sc.SetAttr("radius", strconv.Itoa(m.Scope.Radius))
		if !m.Scope.LoopTimeout.IsZero() {
			sc.SetAttr("loop-timeout-ms", strconv.FormatInt(m.Scope.LoopTimeout.UnixMilli(), 10))
		}
		if !m.Scope.AbortTimeout.IsZero() {
			sc.SetAttr("abort-timeout-ms", strconv.FormatInt(m.Scope.AbortTimeout.UnixMilli(), 10))
		}
		if m.Scope.Policy != "" {
			sc.SetAttr("policy", m.Scope.Policy)
		}
		if m.Scope.Fanout > 0 {
			sc.SetAttr("fanout", strconv.Itoa(m.Scope.Fanout))
		}
		el.AppendChild(sc)
		q := xmldoc.NewElement("query")
		q.AppendChild(xmldoc.NewText(m.Query))
		el.AppendChild(q)
	}
	if m.Kind == KindResult || m.Kind == KindReceipt {
		el.SetAttr("hits", strconv.Itoa(m.HitCount))
		el.SetAttr("final", strconv.FormatBool(m.Final))
		if m.Source != "" {
			el.SetAttr("source", m.Source)
		}
		if m.Err != "" {
			el.SetAttr("err", m.Err)
		}
		if m.NodesContacted > 0 {
			el.SetAttr("nodes-contacted", strconv.Itoa(m.NodesContacted))
		}
		if m.NodesResponded > 0 {
			el.SetAttr("nodes-responded", strconv.Itoa(m.NodesResponded))
		}
		if m.Complete {
			el.SetAttr("complete", "true")
		}
		if len(m.Items) > 0 {
			el.AppendChild(wsda.MarshalSequence(m.Items))
		}
	}
	if len(m.Neighbors) > 0 {
		for _, nb := range m.Neighbors {
			ne := xmldoc.NewElement("neighbor")
			ne.SetAttr("addr", nb)
			el.AppendChild(ne)
		}
	}
	el.Renumber()
	return el
}

// FromXML decodes a wire message.
func FromXML(n *xmldoc.Node) (*Message, error) {
	if n.Kind == xmldoc.DocumentNode {
		n = n.DocumentElement()
	}
	if n == nil || n.LocalName() != "pdp" {
		return nil, fmt.Errorf("pdp: expected <pdp> element")
	}
	m := &Message{}
	ks, _ := n.Attr("kind")
	kind, err := kindFromString(ks)
	if err != nil {
		return nil, err
	}
	m.Kind = kind
	m.TxID, _ = n.Attr("tx")
	m.From, _ = n.Attr("from")
	m.To, _ = n.Attr("to")
	if s, ok := n.Attr("hop"); ok {
		if m.Hop, err = strconv.Atoi(s); err != nil {
			return nil, fmt.Errorf("pdp: bad hop %q", s)
		}
	}
	if s, ok := n.Attr("mode"); ok {
		if m.Mode, err = modeFromString(s); err != nil {
			return nil, err
		}
	}
	m.Origin, _ = n.Attr("origin")
	if s, ok := n.Attr("pipeline"); ok {
		m.Pipeline = s == "true"
	}
	m.Source, _ = n.Attr("source")
	if s, ok := n.Attr("hits"); ok {
		if m.HitCount, err = strconv.Atoi(s); err != nil {
			return nil, fmt.Errorf("pdp: bad hits %q", s)
		}
	}
	if s, ok := n.Attr("final"); ok {
		m.Final = s == "true"
	}
	m.Err, _ = n.Attr("err")
	if s, ok := n.Attr("nodes-contacted"); ok {
		if m.NodesContacted, err = strconv.Atoi(s); err != nil {
			return nil, fmt.Errorf("pdp: bad nodes-contacted %q", s)
		}
	}
	if s, ok := n.Attr("nodes-responded"); ok {
		if m.NodesResponded, err = strconv.Atoi(s); err != nil {
			return nil, fmt.Errorf("pdp: bad nodes-responded %q", s)
		}
	}
	if s, ok := n.Attr("complete"); ok {
		m.Complete = s == "true"
	}
	for _, c := range n.ChildElements() {
		switch c.LocalName() {
		case "scope":
			if s, ok := c.Attr("radius"); ok {
				if m.Scope.Radius, err = strconv.Atoi(s); err != nil {
					return nil, fmt.Errorf("pdp: bad radius %q", s)
				}
			}
			if s, ok := c.Attr("loop-timeout-ms"); ok {
				ms, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("pdp: bad loop timeout %q", s)
				}
				m.Scope.LoopTimeout = time.UnixMilli(ms)
			}
			if s, ok := c.Attr("abort-timeout-ms"); ok {
				ms, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("pdp: bad abort timeout %q", s)
				}
				m.Scope.AbortTimeout = time.UnixMilli(ms)
			}
			m.Scope.Policy, _ = c.Attr("policy")
			if s, ok := c.Attr("fanout"); ok {
				if m.Scope.Fanout, err = strconv.Atoi(s); err != nil {
					return nil, fmt.Errorf("pdp: bad fanout %q", s)
				}
			}
		case "query":
			m.Query = c.StringValue()
		case "results":
			seq, err := wsda.UnmarshalSequence(c)
			if err != nil {
				return nil, err
			}
			m.Items = seq
		case "neighbor":
			a, _ := c.Attr("addr")
			m.Neighbors = append(m.Neighbors, a)
		}
	}
	return m, nil
}

// Encode renders the message as wire text.
func (m *Message) Encode() string { return m.ToXML().String() }

// Decode parses wire text.
func Decode(s string) (*Message, error) {
	doc, err := xmldoc.ParseString(s)
	if err != nil {
		return nil, err
	}
	return FromXML(doc)
}

// WireSize returns the encoded size in bytes — the unit of the byte-traffic
// statistics in the response-mode experiments.
func (m *Message) WireSize() int { return len(m.Encode()) }

// Clone returns a shallow copy with its own Items slice (items themselves
// are shared; senders must not mutate them).
func (m *Message) Clone() *Message {
	c := *m
	c.Items = append(xq.Sequence(nil), m.Items...)
	c.Neighbors = append([]string(nil), m.Neighbors...)
	return &c
}

// Summary renders a compact human-readable description for logs.
func (m *Message) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s tx=%s %s->%s hop=%d", m.Kind, shortTx(m.TxID), m.From, m.To, m.Hop)
	switch m.Kind {
	case KindQuery:
		fmt.Fprintf(&sb, " mode=%s radius=%d", m.Mode, m.Scope.Radius)
	case KindResult, KindReceipt:
		fmt.Fprintf(&sb, " hits=%d final=%v", m.HitCount, m.Final)
	}
	return sb.String()
}

func shortTx(tx string) string {
	if len(tx) > 8 {
		return tx[:8]
	}
	return tx
}
