package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// tick is a clock that advances one millisecond per reading, so every
// recorded event has its own timestamp.
func tick() func() time.Time {
	var mu sync.Mutex
	at := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		at = at.Add(time.Millisecond)
		return at
	}
}

func find(spans []*SpanInfo, name string) *SpanInfo {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func countSpans(roots []*SpanInfo) int {
	n := 0
	for _, s := range roots {
		n += 1 + countSpans(s.Children)
	}
	return n
}

// TestSpanTreeReconstruction records the flight of a two-hop routed query
// — originator submit, two node residencies, one evaluation each, a
// registry event under its own name and the edge's streamed items — and
// checks the hop tree rebuilt from it.
func TestSpanTreeReconstruction(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Now: tick()})
	const tx = "orig#1"
	fr.Record(tx, FlightSubmit, "orig", "n1", -1, "routed")
	fr.Record(tx, FlightReceived, "n1", "orig", 0, "")
	fr.Record(tx, FlightForward, "n1", "n2", 1, "")
	fr.Record(tx, FlightReceived, "n2", "n1", 1, "")
	fr.Record(tx, FlightPlanned, "reg2", "", 0, "index link")
	fr.RecordDur(tx, FlightEval, "n2", "", 2, "index link", 500*time.Microsecond)
	fr.Record(tx, FlightNodeFinal, "n2", "", 2, "complete contacted=1 responded=1")
	fr.RecordDur(tx, FlightEval, "n1", "", 3, "view", 0)
	fr.Record(tx, FlightChildFinal, "n1", "n2", 2, "")
	fr.Record(tx, FlightNodeFinal, "n1", "", 5, "incomplete,abort-timeout contacted=3 responded=2")
	fr.Record(tx, FlightFirstItem, "orig", "n1", 1, "")
	fr.Record(tx, FlightStreamItem, "", "", 1, "")
	fr.Finish(tx, FlightSummary{Items: 5, NodesContacted: 3, NodesResponded: 2, FirstItem: time.Millisecond})

	trace := fr.Trace(tx)
	if trace == nil || trace.Spans != 7 || trace.Dropped != 0 {
		t.Fatalf("trace = %+v, want 7 spans", trace)
	}
	if len(trace.Roots) != 1 || trace.Roots[0].Name != "updf.submit" {
		t.Fatalf("roots = %+v, want one updf.submit", trace.Roots)
	}
	root := trace.Roots[0]
	if root.ID != 1 || root.Attrs["items"] != "5" || root.Attrs["complete"] != "false" || root.Attrs["first-item"] != "1" {
		t.Fatalf("root = %+v", root)
	}
	if root.DurationUS != 12_000 { // submit at 1 ms, summary at 13 ms
		t.Fatalf("root duration = %dus, want 12000", root.DurationUS)
	}
	n1 := find(root.Children, "updf.query")
	if n1 == nil || n1.Parent != root.ID || n1.Attrs["node"] != "n1" {
		t.Fatalf("n1 residency not under submit: %+v", root.Children)
	}
	for k, v := range map[string]string{"local_hits": "3", "subtree_hits": "5", "nodes_contacted": "3",
		"nodes_responded": "2", "complete": "false", "outcome": "abort-timeout", "forward": "1", "child-final": "1"} {
		if n1.Attrs[k] != v {
			t.Errorf("n1 %s = %q, want %q (attrs %v)", k, n1.Attrs[k], v, n1.Attrs)
		}
	}
	if find(root.Children, "planned") == nil || find(root.Children, "stream-item") == nil {
		t.Fatalf("events of no residency must hang under the root: %+v", root.Children)
	}
	n2 := find(n1.Children, "updf.query")
	if n2 == nil || n2.Attrs["complete"] != "true" || n2.Attrs["subtree_hits"] != "2" {
		t.Fatalf("n2 residency not under n1: %+v", n1.Children)
	}
	if e := find(n2.Children, "updf.eval"); e == nil || e.DurationUS != 500 || e.Attrs["hits"] != "2" {
		t.Fatalf("n2 eval = %+v, want 500us with 2 hits", n2.Children)
	}
	if countSpans(trace.Roots) != trace.Spans {
		t.Fatalf("reachable spans = %d, want %d", countSpans(trace.Roots), trace.Spans)
	}
}

func TestTracesMostRecentFirst(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	for i := 1; i <= 3; i++ {
		fr.Record(fmt.Sprintf("t%d", i), FlightSubmit, "orig", "n1", 0, "routed")
	}
	all := fr.Traces(0)
	if len(all) != 3 {
		t.Fatalf("got %d traces, want 3", len(all))
	}
	if all[0].TraceID != "t3" || all[2].TraceID != "t1" {
		t.Fatalf("order = %s,%s,%s, want t3,t2,t1",
			all[0].TraceID, all[1].TraceID, all[2].TraceID)
	}
	if got := fr.Traces(2); len(got) != 2 {
		t.Fatalf("Traces(2) returned %d traces, want 2", len(got))
	}
	var nilRec *FlightRecorder
	if nilRec.Traces(10) != nil || nilRec.Trace("t1") != nil {
		t.Fatal("a nil recorder has no traces")
	}
}

// TestRingWrapEviction checks that a transaction evicted from the
// recorder's ring has no trace, and that a transaction past the per-tx
// event cap reports its dropped events and keeps what is left nested.
func TestRingWrapEviction(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 2, EventsPerTx: 4})
	fr.Record("old", FlightSubmit, "orig", "n1", 0, "routed")
	fr.Record("a", FlightSubmit, "orig", "n1", 0, "routed")
	fr.Record("b", FlightSubmit, "orig", "n1", 0, "routed")
	if fr.Trace("old") != nil {
		t.Fatal("evicted transaction should have no trace")
	}

	fr.Record("a", FlightReceived, "n1", "orig", 0, "")
	fr.Record("a", FlightReceived, "n2", "n1", 1, "")
	fr.Record("a", FlightReceived, "n3", "n2", 2, "") // the cap: kept
	fr.Record("a", FlightNodeFinal, "n3", "", 1, "complete contacted=1 responded=1")
	fr.Finish("a", FlightSummary{Complete: true})
	trace := fr.Trace("a")
	if trace == nil || trace.Dropped != 2 || trace.Spans != 4 || len(trace.Roots) != 1 {
		t.Fatalf("truncated trace = %+v, want 4 spans, 2 dropped, 1 root", trace)
	}
	n3 := trace.Roots[0].Children[0].Children[0].Children[0]
	if n3.Attrs["node"] != "n3" || n3.Attrs["open"] != "true" {
		t.Fatalf("n3 = %+v, want the open residency at the bottom of the chain", n3)
	}
}

// TestParentCycleBreaks feeds two residencies whose senders point at each
// other — impossible causally, possible from hostile or merged input. A
// residency nests only under one that opened before it, so the loop
// breaks and both spans stay reachable.
func TestParentCycleBreaks(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	fr.Record("tx", FlightReceived, "a", "b", 0, "")
	fr.Record("tx", FlightReceived, "b", "a", 0, "")
	trace := fr.Trace("tx")
	if trace == nil || trace.Spans != 2 {
		t.Fatalf("trace = %+v, want 2 spans", trace)
	}
	if len(trace.Roots) != 1 || countSpans(trace.Roots) != 2 {
		t.Fatalf("roots = %+v, want a, with b under it", trace.Roots)
	}
}

// TestDoubleEndRecordsOnce closes one residency twice — a node-final, then
// a close that races it — and a node twice-received: one residency each,
// its first closer wins, and the second received is a leaf.
func TestDoubleEndRecordsOnce(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Now: tick()})
	fr.Record("tx", FlightSubmit, "orig", "n1", -1, "routed")
	fr.Record("tx", FlightReceived, "n1", "orig", 0, "")
	fr.Record("tx", FlightReceived, "n2", "n1", 1, "")
	fr.Record("tx", FlightReceived, "n2", "n3", 1, "")
	fr.Record("tx", FlightDuplicate, "n2", "n3", 0, "")
	fr.Record("tx", FlightNodeFinal, "n1", "", 1, "complete contacted=2 responded=2")
	fr.Record("tx", FlightClose, "n1", "orig", 0, "")
	trace := fr.Trace("tx")
	n1 := trace.Roots[0].Children[0]
	if n1.Attrs["outcome"] != "" || n1.Attrs["complete"] != "true" || n1.Attrs["close"] != "1" {
		t.Fatalf("n1 = %+v, want closed by its node-final, the late close counted", n1.Attrs)
	}
	if len(n1.Children) != 1 || n1.Children[0].Name != "updf.query" {
		t.Fatalf("n1 children = %+v, want n2's one residency", n1.Children)
	}
	n2 := n1.Children[0]
	if n2.Attrs["outcome"] != "" || n2.Attrs["open"] != "true" {
		t.Fatalf("n2 = %+v: a duplicate from another sender must not close the residency", n2.Attrs)
	}
	// n3 has no residency here, so the leaf of n2's second received hangs
	// under the root.
	leaf := find(trace.Roots[0].Children, "updf.received")
	if leaf == nil || leaf.Attrs["outcome"] != FlightDuplicate {
		t.Fatalf("second received = %+v, want a duplicate leaf", trace.Roots[0].Children)
	}
}

// TestTracesEdgeOnly rebuilds a transaction with no submit and no PDP hop
// — a router's — as one wsda.request root holding every event.
func TestTracesEdgeOnly(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	fr.Record("hop1", FlightReceived, "router", "", 1, "wsda/xquery")
	fr.Record("hop1", FlightRouted, "router", "shard0", 1, "scatter=2")
	fr.Record("hop1", FlightRouted, "router", "shard1", 1, "scatter=2")
	fr.Record("hop1", FlightStreamItem, "", "", 1, "")
	fr.Finish("hop1", FlightSummary{Items: 1, Complete: true})
	trace := fr.Trace("hop1")
	if trace == nil || len(trace.Roots) != 1 || trace.Spans != 4 {
		t.Fatalf("trace = %+v, want one root and 4 spans", trace)
	}
	root := trace.Roots[0]
	if root.Name != "wsda.request" || root.Attrs["items"] != "1" || len(root.Children) != 3 {
		t.Fatalf("root = %+v", root)
	}
	if root.Children[0].Name != FlightRouted || root.Children[0].Attrs["peer"] != "shard0" {
		t.Fatalf("first child = %+v, want the routed event naming shard0", root.Children[0])
	}
}

func TestTracesConcurrent(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := fmt.Sprintf("t%d.%d", g, i%20)
				fr.Record(tx, FlightReceived, fmt.Sprint("n", i%3), fmt.Sprint("n", (i+1)%3), 0, "")
				_ = fr.Traces(4)
			}
		}(g)
	}
	wg.Wait()
}
