package wsda

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

const allServices = `/tupleset/tuple/content/service`

func newStreamTestServer(t *testing.T) (*Client, *telemetry.Metrics) {
	t.Helper()
	node := newLocalNode()
	publishSample(t, node, "a", "cern.ch")
	publishSample(t, node, "b", "infn.it")
	m := telemetry.NewMetrics()
	srv := httptest.NewServer(HandlerWithObservability(node, m, nil))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), m
}

// A streamed xquery must deliver the same item bytes as the buffered
// binding and record the first-item histogram.
func TestXQueryStreamMatchesBuffered(t *testing.T) {
	c, m := newStreamTestServer(t)
	buffered, err := c.XQuery(allServices, registry.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var streamed xq.Sequence
	sum, err := c.XQueryStream(allServices, registry.QueryOptions{}, 0, func(it xq.Item) bool {
		streamed = append(streamed, it)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(buffered) || sum.Count != len(buffered) {
		t.Fatalf("streamed %d items (summary %d), buffered %d", len(streamed), sum.Count, len(buffered))
	}
	for i := range buffered {
		b, s := string(AppendItem(nil, buffered[i])), string(AppendItem(nil, streamed[i]))
		if b != s {
			t.Fatalf("item %d bytes differ:\nbuffered: %s\nstreamed: %s", i, b, s)
		}
	}
	if !sum.Complete {
		t.Fatal("summary complete = false for a full local query")
	}
	var sb strings.Builder
	m.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), MetricFirstItemSeconds) {
		t.Fatalf("metrics lack %s after a streamed query", MetricFirstItemSeconds)
	}
}

// max-results must stop local evaluation at exactly N items and mark the
// result incomplete.
func TestXQueryStreamMaxResults(t *testing.T) {
	c, _ := newStreamTestServer(t)
	var n int
	sum, err := c.XQueryStream(allServices, registry.QueryOptions{}, 1, func(xq.Item) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || sum.Count != 1 {
		t.Fatalf("delivered %d items (summary %d), want exactly 1", n, sum.Count)
	}
	if sum.Complete {
		t.Fatal("truncated result reported complete=true")
	}
}

// Oversized xquery bodies answer 413 instead of silently truncating the
// query text.
func TestXQueryOversizeBody(t *testing.T) {
	c, _ := newStreamTestServer(t)
	big := strings.Repeat("x", MaxQueryBytes+1)
	resp, err := http.Post(c.BaseURL+PathXQuery, "text/xml", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// DecodeStream must handle a buffered <results> document (accounting on
// the root) and a StreamWriter stream (trailing <summary>) identically.
func TestDecodeStreamBothShapes(t *testing.T) {
	el := xmldoc.MustParse(`<a x="1"><b>t</b></a>`).DocumentElement()
	seq := xq.Sequence{el, "s", int64(7), 2.5, true, xmldoc.NewAttr("k", "v")}

	// Buffered shape.
	doc := MarshalSequence(seq)
	doc.SetAttr("complete", "true")
	doc.SetAttr("nodes-contacted", "3")
	doc.SetAttr("nodes-responded", "3")
	var got xq.Sequence
	sum, err := DecodeStream(strings.NewReader(doc.String()), func(it xq.Item) bool {
		got = append(got, it)
		return true
	})
	if err != nil {
		t.Fatalf("decode buffered: %v", err)
	}
	if len(got) != len(seq) || sum.Count != len(seq) || !sum.Complete || sum.NodesContacted != 3 {
		t.Fatalf("buffered decode: %d items, summary %+v", len(got), sum)
	}

	// Streamed shape.
	rec := httptest.NewRecorder()
	sw := NewStreamWriter(rec)
	for _, it := range seq {
		if err := sw.WriteItem(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(StreamSummary{
		TxID: "tx1", Complete: true, Elapsed: 42 * time.Millisecond,
		Network: true, NodesContacted: 3, NodesResponded: 3,
	}); err != nil {
		t.Fatal(err)
	}
	got = nil
	sum, err = DecodeStream(rec.Body, func(it xq.Item) bool {
		got = append(got, it)
		return true
	})
	if err != nil {
		t.Fatalf("decode streamed: %v", err)
	}
	if len(got) != len(seq) || sum.Count != len(seq) {
		t.Fatalf("streamed decode: %d items, summary count %d", len(got), sum.Count)
	}
	if sum.TxID != "tx1" || !sum.Complete || !sum.Network ||
		sum.NodesContacted != 3 || sum.Elapsed != 42*time.Millisecond {
		t.Fatalf("streamed summary = %+v", sum)
	}
	if n, ok := got[0].(*xmldoc.Node); !ok || !n.Equal(el) {
		t.Errorf("node item mismatch: %v", got[0])
	}
	if got[1] != "s" || got[2] != int64(7) || got[3] != 2.5 || got[4] != true {
		t.Errorf("atomics = %#v", got[1:5])
	}
}

// onItem returning false stops the incremental parse early.
func TestDecodeStreamEarlyStop(t *testing.T) {
	doc := MarshalSequence(xq.Sequence{"a", "b", "c"})
	n := 0
	sum, err := DecodeStream(strings.NewReader(doc.String()), func(xq.Item) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || sum.Count != 2 {
		t.Fatalf("decoded %d items (summary %d), want 2", n, sum.Count)
	}
	if sum.Complete {
		t.Fatal("an early-stopped decode reported complete=true")
	}
}

// A stream cut off mid-flight must surface as an error, not a silently
// short result.
func TestDecodeStreamTruncated(t *testing.T) {
	full := `<results streamed="true"><atomic type="string">a</atomic>`
	_, err := DecodeStream(strings.NewReader(full), nil)
	if err == nil || (!strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "EOF")) {
		t.Fatalf("err = %v, want truncated-stream error", err)
	}
}
