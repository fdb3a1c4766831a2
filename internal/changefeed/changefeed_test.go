package changefeed

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
)

func testTuple(name string) *tuple.Tuple {
	return &tuple.Tuple{
		Link:    "http://cern.ch/" + name,
		Type:    tuple.TypeService,
		Context: "child",
		Content: xmldoc.MustParse(fmt.Sprintf(`<service name=%q><load>0.5</load></service>`, name)).
			DocumentElement().Clone(),
	}
}

func newReg(name string, journalCap int) *registry.Registry {
	return registry.New(registry.Config{
		Name:       name,
		DefaultTTL: time.Hour,
		MinTTL:     time.Millisecond,
		JournalCap: journalCap,
	})
}

// tupleSetString serializes a registry's live tuple set deterministically,
// so two registries can be compared for exact replication equality
// (attributes, timestamps and content included).
func tupleSetString(t *testing.T, r *registry.Registry) string {
	t.Helper()
	var sb strings.Builder
	for _, tp := range r.MinQuery(registry.Filter{}) {
		sb.WriteString(tp.ToXML().String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestPageRoundTrip(t *testing.T) {
	live := testTuple("a")
	live.TS3 = time.UnixMilli(90_000)
	p := Page{
		Epoch: "abc", From: 3, To: 9,
		Changes: []registry.Change{
			{Key: live.Link, Tuple: live},
			{Key: "http://cern.ch/gone"},
		},
	}
	got, err := UnmarshalPage(MarshalPage(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != "abc" || got.From != 3 || got.To != 9 || got.Truncated {
		t.Fatalf("envelope mangled: %+v", got)
	}
	if len(got.Changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(got.Changes))
	}
	rt := got.Changes[0].Tuple
	if rt == nil || rt.Link != live.Link || !rt.TS3.Equal(live.TS3) || rt.Content == nil {
		t.Fatalf("live change mangled: %+v", rt)
	}
	if got.Changes[1].Tuple != nil {
		t.Fatalf("deletion mangled: %+v", got.Changes[1])
	}

	trunc := Page{Epoch: "abc", From: 1, To: 50, Truncated: true}
	got, err = UnmarshalPage(MarshalPage(trunc))
	if err != nil || !got.Truncated {
		t.Fatalf("truncation page mangled: %+v, %v", got, err)
	}
}

// TestStepBootstrapTailRebootstrap drives one replica deterministically
// through its whole lifecycle: snapshot bootstrap, incremental tailing
// (inserts, refreshes and deletions), and the forced re-bootstrap after
// the primary's bounded journal truncates past the replica's cursor.
func TestStepBootstrapTailRebootstrap(t *testing.T) {
	prim := newReg("prim", 8)
	srv := NewServer(prim)
	mux := http.NewServeMux()
	srv.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if _, err := prim.Publish(testTuple(fmt.Sprintf("s%d", i)), time.Hour); err != nil {
			t.Fatal(err)
		}
	}

	rep := New(Config{Primary: ts.URL, Registry: newReg("rep", 0)})
	ctx := context.Background()

	// Round 1: bootstrap from snapshot.
	if progressed, err := rep.Step(ctx); err != nil || !progressed {
		t.Fatalf("bootstrap step = %v, %v", progressed, err)
	}
	st := rep.Stats()
	if st.Bootstraps != 1 || st.Lag != 0 || rep.cfg.Registry.Len() != 3 {
		t.Fatalf("after bootstrap: %+v, len %d", st, rep.cfg.Registry.Len())
	}

	// Round 2: tail deltas — an insert, a refresh and a deletion.
	if _, err := prim.Publish(testTuple("s3"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Publish(testTuple("s0"), time.Hour); err != nil {
		t.Fatal(err)
	}
	prim.Unpublish("http://cern.ch/s1")
	if progressed, err := rep.Step(ctx); err != nil || !progressed {
		t.Fatalf("tail step = %v, %v", progressed, err)
	}
	if got, want := tupleSetString(t, rep.cfg.Registry), tupleSetString(t, prim); got != want {
		t.Fatalf("replica diverged after tail:\n%s\nwant:\n%s", got, want)
	}
	if st := rep.Stats(); st.Applied != 3 || st.Lag != 0 {
		t.Fatalf("after tail: %+v", st)
	}

	// Round 3: blast past the 8-entry journal; the next poll must demand a
	// re-bootstrap, and the bootstrap must reconverge exactly.
	for i := 10; i < 30; i++ {
		if _, err := prim.Publish(testTuple(fmt.Sprintf("s%d", i)), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if progressed, err := rep.Step(ctx); err != nil || progressed {
		t.Fatalf("truncated poll = %v, %v (want no progress, no error)", progressed, err)
	}
	if progressed, err := rep.Step(ctx); err != nil || !progressed {
		t.Fatalf("re-bootstrap step = %v, %v", progressed, err)
	}
	if st := rep.Stats(); st.Bootstraps != 2 || st.Lag != 0 {
		t.Fatalf("after re-bootstrap: %+v", st)
	}
	if got, want := tupleSetString(t, rep.cfg.Registry), tupleSetString(t, prim); got != want {
		t.Fatalf("replica diverged after re-bootstrap:\n%s\nwant:\n%s", got, want)
	}

	// An empty poll is quiet: no progress, no error, cursor pinned.
	if progressed, err := rep.Step(ctx); err != nil || progressed {
		t.Fatalf("idle poll = %v, %v", progressed, err)
	}
}

// TestStepEpochChange swaps in a fresh primary (new Server incarnation,
// new generation counter) behind the same URL — the cursor must be
// abandoned and the replica must re-bootstrap, dropping tuples the new
// primary does not have.
func TestStepEpochChange(t *testing.T) {
	prim1 := newReg("prim1", 0)
	srv1 := NewServer(prim1)
	mux1 := http.NewServeMux()
	srv1.Mount(mux1)
	var current atomic.Value // *http.ServeMux
	current.Store(mux1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().(*http.ServeMux).ServeHTTP(w, r)
	}))
	defer ts.Close()

	if _, err := prim1.Publish(testTuple("only-on-old"), time.Hour); err != nil {
		t.Fatal(err)
	}
	rep := New(Config{Primary: ts.URL, Registry: newReg("rep", 0)})
	ctx := context.Background()
	if _, err := rep.Step(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart" the primary: fresh registry, fresh epoch, same address.
	prim2 := newReg("prim2", 0)
	if _, err := prim2.Publish(testTuple("only-on-new"), time.Hour); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(prim2)
	mux2 := http.NewServeMux()
	srv2.Mount(mux2)
	current.Store(mux2)
	if srv1.Epoch() == srv2.Epoch() {
		t.Fatal("two server incarnations share an epoch")
	}

	if progressed, err := rep.Step(ctx); err != nil || progressed {
		t.Fatalf("epoch-change poll = %v, %v (want re-bootstrap demand)", progressed, err)
	}
	if _, err := rep.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := tupleSetString(t, rep.cfg.Registry), tupleSetString(t, prim2); got != want {
		t.Fatalf("replica kept pre-restart state:\n%s\nwant:\n%s", got, want)
	}
	if st := rep.Stats(); st.Bootstraps != 2 {
		t.Fatalf("bootstraps = %d, want 2", st.Bootstraps)
	}
}

// TestFeedLongPoll holds a feed request open until a publish lands.
func TestFeedLongPoll(t *testing.T) {
	prim := newReg("prim", 0)
	srv := NewServer(prim)
	mux := http.NewServeMux()
	srv.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	type res struct {
		p       Page
		elapsed time.Duration
		err     error
	}
	ch := make(chan res, 1)
	start := time.Now()
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s%s?since=0&wait-ms=5000", ts.URL, PathFeed))
		if err != nil {
			ch <- res{err: err}
			return
		}
		defer resp.Body.Close()
		doc, err := xmldoc.Parse(resp.Body)
		if err != nil {
			ch <- res{err: err}
			return
		}
		p, err := UnmarshalPage(doc)
		ch <- res{p: p, elapsed: time.Since(start), err: err}
	}()

	time.Sleep(60 * time.Millisecond)
	if _, err := prim.Publish(testTuple("late"), time.Hour); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.p.Changes) != 1 || r.p.Changes[0].Key != "http://cern.ch/late" {
			t.Fatalf("long poll returned %+v", r.p)
		}
		if r.elapsed >= 5*time.Second {
			t.Fatalf("long poll burned the full wait: %v", r.elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never returned")
	}
}

// TestFeedBadParams rejects malformed cursors and waits.
func TestFeedBadParams(t *testing.T) {
	prim := newReg("prim", 0)
	srv := NewServer(prim)
	mux := http.NewServeMux()
	srv.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for _, u := range []string{
		ts.URL + PathFeed + "?since=banana",
		ts.URL + PathFeed + "?wait-ms=-5",
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}
}

// FuzzUnmarshalPage checks the feed-page parser, which every replica and
// SDK tailer runs over what a primary sends: it never panics, and a page
// it accepts survives MarshalPage and a second UnmarshalPage unchanged —
// the reader and the writer agree on what every accepted page means.
func FuzzUnmarshalPage(f *testing.F) {
	f.Add(MarshalPage(Page{Epoch: "e1", From: 3, To: 5, Changes: []registry.Change{
		{Key: "http://cern.ch/a", Tuple: testTuple("a")}, {Key: "http://cern.ch/b"},
	}}).String())
	f.Add(MarshalPage(Page{Epoch: "e2", From: 9, To: 9, Truncated: true}).String())
	f.Add(`<changes from="1" to="2"><change key="k" deleted="true"/><other/></changes>`)
	f.Add(`<x:changes xmlns:x="u" from="0" to="1"><x:change key="k"><tuple link="l" type="service"/></x:change></x:changes>`)
	f.Add(`<changes from="-1" to="18446744073709551616"/>`)
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmldoc.ParseString(src)
		if err != nil {
			return
		}
		p, err := UnmarshalPage(doc)
		if err != nil {
			return
		}
		again, err := UnmarshalPage(MarshalPage(p))
		if err != nil {
			t.Fatalf("%q: accepted page does not re-parse: %v", src, err)
		}
		if a, b := pageText(p), pageText(again); a != b {
			t.Fatalf("%q: page changed across Marshal/Unmarshal:\n%s\n%s", src, a, b)
		}
	})
}

// pageText renders every field of a page for comparison.
func pageText(p Page) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%q %d %d %v", p.Epoch, p.From, p.To, p.Truncated)
	for _, c := range p.Changes {
		fmt.Fprintf(&sb, "\n%q", c.Key)
		if c.Tuple != nil {
			sb.WriteString(" " + c.Tuple.ToXML().String())
		}
	}
	return sb.String()
}
