package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestFlightNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record("tx", FlightReceived, "n", "", 0, "")
	fr.Finish("tx", FlightSummary{})
	if fr.Tx("tx") != nil {
		t.Fatal("nil recorder returned a tx")
	}
	if sl, total := fr.Slowlog(); sl != nil || total != 0 {
		t.Fatal("nil recorder returned slowlog entries")
	}
	if fr.SlowThreshold() != 0 {
		t.Fatal("nil recorder has a threshold")
	}
}

func TestFlightRecordAndFinish(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{SlowThreshold: time.Second})
	fr.Record("t1", FlightSubmit, "orig", "node/0", 0, "routed")
	fr.Record("t1", FlightReceived, "node/0", "orig", 1, "")
	fr.Record("t1", FlightForward, "node/0", "node/1", 0, "")
	fr.Finish("t1", FlightSummary{
		FirstItem: 10 * time.Millisecond,
		Elapsed:   20 * time.Millisecond,
		Items:     3, Complete: true,
		NodesContacted: 2, NodesResponded: 2,
	})

	info := fr.Tx("t1")
	if info == nil {
		t.Fatal("tx not found")
	}
	if len(info.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(info.Events))
	}
	kinds := []string{FlightSubmit, FlightReceived, FlightForward, FlightSummaryKind}
	for i, k := range kinds {
		if info.Events[i].Kind != k {
			t.Fatalf("event %d kind = %q, want %q", i, info.Events[i].Kind, k)
		}
	}
	for i := 1; i < len(info.Events); i++ {
		if info.Events[i].Seq <= info.Events[i-1].Seq {
			t.Fatalf("seq not increasing at %d", i)
		}
	}
	if info.Summary == nil || !info.Summary.Complete || info.Summary.Items != 3 {
		t.Fatalf("bad summary: %+v", info.Summary)
	}
	if info.Summary.Reason != "" {
		t.Fatalf("fast complete query admitted to slowlog: %q", info.Summary.Reason)
	}
	if sl, _ := fr.Slowlog(); len(sl) != 0 {
		t.Fatalf("slowlog = %d entries, want 0", len(sl))
	}
}

func TestFlightSlowlogGating(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{SlowThreshold: 50 * time.Millisecond})

	// Slow first item.
	fr.Finish("slow", FlightSummary{FirstItem: 80 * time.Millisecond, Items: 1, Complete: true})
	// Incomplete but fast.
	fr.Finish("inc", FlightSummary{FirstItem: time.Millisecond, Items: 1, Complete: false})
	// Empty and slow overall.
	fr.Finish("empty", FlightSummary{Elapsed: 90 * time.Millisecond, Complete: true})
	// Fast and complete: not admitted.
	fr.Finish("ok", FlightSummary{FirstItem: time.Millisecond, Items: 1, Complete: true})

	sl, total := fr.Slowlog()
	if total != 3 || len(sl) != 3 {
		t.Fatalf("slowlog total=%d len=%d, want 3/3", total, len(sl))
	}
	// Most recent first.
	if sl[0].TxID != "empty" || sl[1].TxID != "inc" || sl[2].TxID != "slow" {
		t.Fatalf("slowlog order: %s %s %s", sl[0].TxID, sl[1].TxID, sl[2].TxID)
	}
	want := map[string]string{"slow": "slow-first-item", "inc": "incomplete", "empty": "slow-empty"}
	for _, e := range sl {
		if e.Reason != want[e.TxID] {
			t.Fatalf("tx %s reason = %q, want %q", e.TxID, e.Reason, want[e.TxID])
		}
	}
}

func TestFlightEviction(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SlowThreshold: time.Second})
	for i := 0; i < 10; i++ {
		fr.Record(fmt.Sprintf("tx%d", i), FlightReceived, "n", "", 0, "")
	}
	for i := 0; i < 6; i++ {
		if fr.Tx(fmt.Sprintf("tx%d", i)) != nil {
			t.Fatalf("tx%d survived eviction", i)
		}
	}
	for i := 6; i < 10; i++ {
		if fr.Tx(fmt.Sprintf("tx%d", i)) == nil {
			t.Fatalf("tx%d missing", i)
		}
	}
}

func TestFlightEventCap(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{EventsPerTx: 8, SlowThreshold: time.Second})
	for i := 0; i < 20; i++ {
		fr.Record("tx", FlightItem, "n", "", int64(i), "")
	}
	info := fr.Tx("tx")
	if len(info.Events) != 8 || info.Dropped != 12 {
		t.Fatalf("events=%d dropped=%d, want 8/12", len(info.Events), info.Dropped)
	}
}

func TestFlightSlowlogRing(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{SlowlogCapacity: 3, SlowThreshold: time.Nanosecond})
	for i := 0; i < 7; i++ {
		fr.Finish(fmt.Sprintf("tx%d", i), FlightSummary{FirstItem: time.Second, Items: 1, Complete: true})
	}
	sl, total := fr.Slowlog()
	if total != 7 || len(sl) != 3 {
		t.Fatalf("total=%d len=%d, want 7/3", total, len(sl))
	}
	if sl[0].TxID != "tx6" || sl[2].TxID != "tx4" {
		t.Fatalf("ring kept %s..%s, want tx6..tx4", sl[0].TxID, sl[2].TxID)
	}
}

func TestFlightConcurrent(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tx := fmt.Sprintf("tx%d", g%4)
			for i := 0; i < 200; i++ {
				fr.Record(tx, FlightItem, "n", "peer", int64(i), "")
				if i%50 == 0 {
					fr.Tx(tx)
					fr.Slowlog()
				}
			}
			fr.Finish(tx, FlightSummary{Items: 200, Complete: true, FirstItem: time.Millisecond})
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if fr.Tx(fmt.Sprintf("tx%d", g)) == nil {
			t.Fatalf("tx%d lost", g)
		}
	}
}

// TestFlightSeqAscendsWithinTx hammers one transaction from many
// goroutines: sequence numbers are handed out under the same lock as the
// append, so the stored events must be strictly Seq-ascending.
func TestFlightSeqAscendsWithinTx(t *testing.T) {
	const goroutines, perG = 16, 200
	fr := NewFlightRecorder(FlightConfig{EventsPerTx: goroutines*perG + goroutines})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fr.Record("tx", FlightItem, "n", "", int64(i), "")
			}
			fr.Finish("tx", FlightSummary{Complete: true})
		}()
	}
	wg.Wait()
	info := fr.Tx("tx")
	if info == nil || len(info.Events) != goroutines*perG+goroutines {
		t.Fatalf("recorded %v events, want %d", info, goroutines*perG+goroutines)
	}
	for i := 1; i < len(info.Events); i++ {
		if info.Events[i].Seq <= info.Events[i-1].Seq {
			t.Fatalf("event %d seq %d not above previous %d", i, info.Events[i].Seq, info.Events[i-1].Seq)
		}
	}
}

func TestFlightHandlers(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{SlowThreshold: time.Nanosecond})
	fr.Record("a#1", FlightReceived, "node/0", "orig", 1, "")
	fr.Finish("a#1", FlightSummary{FirstItem: time.Second, Items: 2, Complete: false})

	mux := http.NewServeMux()
	MountObservability(mux, fr, NewSLO(SLOConfig{}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/query/a%231")
	if err != nil {
		t.Fatal(err)
	}
	var info FlightInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.TxID != "a#1" || len(info.Events) != 2 || info.Summary == nil {
		t.Fatalf("bad flight info: %+v", info)
	}

	resp, err = http.Get(srv.URL + "/debug/query/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing tx status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	var slow SlowlogResponse
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slow.Admitted != 1 || len(slow.Entries) != 1 || slow.Entries[0].Reason == "" {
		t.Fatalf("bad slowlog: %+v", slow)
	}

	resp, err = http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var st SLOStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Objectives) != 3 {
		t.Fatalf("slo objectives = %d, want 3", len(st.Objectives))
	}
}
