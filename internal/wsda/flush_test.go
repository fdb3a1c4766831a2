package wsda_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/workload"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// A walked item leaves when found; items the producer holds together leave
// together. These tests pin where a streamed response is flushed — after
// the first item, then after every item of a walk or an unordered FLWOR,
// but only with the trailer for a sorted or a non-FLWOR result — and that
// where it is flushed changes no byte of it.

var update = flag.Bool("update", false, "rewrite testdata/edge_bodies.golden from this tree's responses")

const (
	orderedItems = `for $s in //service order by string($s/@name) descending return string($s/@name)`
	pathItems    = `//service/@name`
)

var (
	q3 = workload.CanonicalQueries[2].XQ // an unfiltered scan, held: read from the pinned set's memo
	q7 = workload.CanonicalQueries[6].XQ // an ordered FLWOR, held after its sort
)

// flushLog is an http.ResponseWriter that keeps the body and the body
// length at each Flush, so a test can tell which bytes left together.
type flushLog struct {
	h       http.Header
	body    bytes.Buffer
	flushAt []int
	onFlush func() // called after each Flush
}

func newFlushLog() *flushLog { return &flushLog{h: make(http.Header)} }

func (f *flushLog) Header() http.Header         { return f.h }
func (f *flushLog) Write(p []byte) (int, error) { return f.body.Write(p) }
func (f *flushLog) WriteHeader(int)             {}
func (f *flushLog) Flush() {
	f.flushAt = append(f.flushAt, f.body.Len())
	if f.onFlush != nil {
		f.onFlush()
	}
}

// serve runs one query through h into a fresh flushLog.
func serve(h http.Handler, path, params, query string) *flushLog {
	f := newFlushLog()
	h.ServeHTTP(f, httptest.NewRequest(http.MethodPost, withParams(path, params), strings.NewReader(query)))
	return f
}

// itemEnds returns the body offset just past each item of a streamed body.
func itemEnds(t *testing.T, body string) []int {
	t.Helper()
	const open = `<results streamed="true">`
	if !strings.HasPrefix(body, open) {
		t.Fatalf("not a stream: %.80s", body)
	}
	at, ends := len(open), []int(nil)
	_, err := wsda.DecodeRawStream(strings.NewReader(body), func(raw wsda.RawItem) bool {
		if !strings.HasPrefix(body[at:], string(raw)) {
			t.Fatalf("item %d is not where the stream has it", len(ends)+1)
		}
		at += len(raw)
		ends = append(ends, at)
		return true
	})
	if err != nil {
		t.Fatalf("stream does not decode: %v", err)
	}
	return ends
}

// perItem is where a walked stream flushes: after each item, then after
// the trailer. held is where a held one does: after the first item, then
// after the trailer.
func perItem(ends []int, size int) []int { return append(append([]int(nil), ends...), size) }

func held(ends []int, size int) []int {
	if len(ends) == 0 {
		return []int{size}
	}
	return []int{ends[0], size}
}

func workloadRegistry(t testing.TB, n int) *registry.Registry {
	t.Helper()
	reg := registry.New(registry.Config{Name: "flush", DefaultTTL: time.Hour})
	if err := workload.NewGen(1).Populate(reg, n, time.Hour); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestStreamFlushPoints(t *testing.T) {
	reg := wsda.Handler(&wsda.LocalNode{Registry: workloadRegistry(t, 1000)})
	for _, c := range []struct {
		name   string
		query  string
		params string
		min    int
		want   func(ends []int, size int) []int
	}{
		{"Q7, ordered FLWOR", q7, "", 50, held},
		{"Q3, scan read from the memo", q3, "", 50, held},
		{"Q3 under a link prefix, sourced walk", q3, "&prefix=http", 50, perItem},
		{"bare tuple scan, sourced walk", `/tupleset/tuple`, "", 50, perItem},
		{"unordered FLWOR", `for $s in /tupleset/tuple/content/service[@domain="cern.ch"] return $s/@name`, "", 50, perItem},
		{"non-FLWOR result", `//service[@domain="cern.ch"]/@name`, "", 50, held},
		{"aggregate", `count(//service)`, "", 1, held},
	} {
		f := serve(reg, wsda.PathXQuery, "stream=true"+c.params, c.query)
		body := f.body.String()
		ends := itemEnds(t, body)
		if len(ends) < c.min {
			t.Fatalf("%s: %d items, want at least %d", c.name, len(ends), c.min)
		}
		if want := c.want(ends, len(body)); fmt.Sprint(f.flushAt) != fmt.Sprint(want) {
			t.Errorf("%s: %d items flushed at %v, want %v", c.name, len(ends), f.flushAt, want)
		}
	}

	// The peer edge forwards items that arrive one by one, so every item is
	// flushed, whatever the query's shape. The router does the same with
	// the items of a shard that cannot tell when it would wait: a walk on
	// a LocalBackend, and a scripted backend.
	edges := queryEdges(t)
	scripted := shard.NewRouter(shard.Config{Backends: []shard.Backend{
		scriptedBackend{run: func(_ context.Context, emit func(xq.Item) bool) error {
			for i := int64(0); i < edgeItems && emit(i); i++ {
			}
			return nil
		}}}}).Handler()
	for _, c := range []struct {
		name    string
		h       http.Handler
		path    string
		queries []string
	}{
		{"netquery", edges[2].good, edges[2].path, []string{allItems, orderedItems, pathItems}},
		{"router over LocalBackends", edges[1].good, edges[1].path, []string{allItems}},
		{"router over a scripted backend", scripted, wsda.PathXQuery, []string{allItems}},
	} {
		for _, query := range c.queries {
			f := serve(c.h, c.path, "stream=true", query)
			body := f.body.String()
			ends := itemEnds(t, body)
			if len(ends) != edgeItems {
				t.Fatalf("%s %s: %d items, want %d", c.name, query, len(ends), edgeItems)
			}
			if want := perItem(ends, len(body)); fmt.Sprint(f.flushAt) != fmt.Sprint(want) {
				t.Errorf("%s %s: flushed at %v, want %v", c.name, query, f.flushAt, want)
			}
		}
	}
}

// An HTTP shard tells the router when it would wait: the router flushes
// the first item at once, then what it has written each time it is about
// to read the shard, so every item written before it waits on the shard
// has left, and a burst it read in one Read leaves in one flush.
func TestRouterFlushesBeforeItWaits(t *testing.T) {
	const open = `<results streamed="true">`
	bursts := []int{3, 1, 4, 2} // items per burst; 10 items of one width
	item := func(i int) string { return string(wsda.AppendItem(nil, int64(i))) }
	var ends []int // the router's body offsets at which each burst ends
	for i, n := 0, 0; i < len(bursts); i++ {
		n += bursts[i]
		ends = append(ends, len(open)+n*len(item(0)))
	}
	gate := make(chan struct{}, len(bursts))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, k := open, 0
		for i, n := range bursts {
			if i > 0 {
				select {
				case <-gate:
				case <-time.After(5 * time.Second):
					t.Errorf("the router waits on the shard before flushing burst %d", i)
					return
				}
			}
			for ; n > 0; n-- {
				out += item(k)
				k++
			}
			if i == len(bursts)-1 {
				out += `<summary count="10" complete="true"/></results>`
			}
			_, _ = io.WriteString(w, out) // a burst: one write, one flush
			w.(http.Flusher).Flush()
			out = ""
		}
	}))
	defer srv.Close()
	router := shard.NewRouter(shard.Config{Backends: []shard.Backend{shard.NewHTTPBackend(srv.URL, srv.Client())}}).Handler()
	f := newFlushLog()
	f.onFlush = func() {
		if i := slices.Index(ends, f.body.Len()); i >= 0 && i < len(bursts)-1 {
			gate <- struct{}{} // burst i has left: send the next
		}
	}
	router.ServeHTTP(f, httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true", strings.NewReader(allItems)))
	body := f.body.String()
	want := append(append([]int{itemEnds(t, body)[0]}, ends...), len(body))
	if fmt.Sprint(f.flushAt) != fmt.Sprint(want) {
		t.Errorf("flushed at %v, want the first item, each burst's end and the trailer: %v", f.flushAt, want)
	}
}

// TestHeldRunEarlyStop: a held run ends early the way a walk does — at
// max-results, at a page bound, or when the client leaves — and the
// trailer that says so is flushed.
func TestHeldRunEarlyStop(t *testing.T) {
	node := &wsda.LocalNode{Registry: workloadRegistry(t, 1000)}
	h := wsda.Handler(node)
	all := serve(h, wsda.PathXQuery, "stream=true", q7)
	want, _ := results(t, http.StatusOK, all.body.String())

	t.Run("max-results", func(t *testing.T) {
		f := serve(h, wsda.PathXQuery, "stream=true&max-results=5", q7)
		body := f.body.String()
		got, sum := results(t, http.StatusOK, body)
		if fmt.Sprint(got) != fmt.Sprint(want[:5]) || sum.Complete || !strings.Contains(body, `complete="false"`) {
			t.Errorf("%d items, summary %+v, want the first 5 and complete=\"false\"", len(got), sum)
		}
		if w := held(itemEnds(t, body), len(body)); fmt.Sprint(f.flushAt) != fmt.Sprint(w) {
			t.Errorf("flushed at %v, want %v", f.flushAt, w)
		}
	})

	t.Run("page bound", func(t *testing.T) {
		var paged []string
		cursor := ""
		for page := 0; page < 2; page++ {
			params := "page-size=10"
			if cursor != "" {
				params += "&page-cursor=" + cursor
			}
			f := serve(h, wsda.PathXQuery, params, q7)
			body := f.body.String()
			got, sum := results(t, http.StatusOK, body)
			if len(got) != 10 || sum.NextCursor == "" || sum.Complete {
				t.Fatalf("page %d: %d items, summary %+v, want 10 and a next-cursor", page+1, len(got), sum)
			}
			if w := held(itemEnds(t, body), len(body)); fmt.Sprint(f.flushAt) != fmt.Sprint(w) {
				t.Errorf("page %d: flushed at %v, want %v", page+1, f.flushAt, w)
			}
			paged, cursor = append(paged, got...), sum.NextCursor
		}
		if fmt.Sprint(paged) != fmt.Sprint(want[:20]) {
			t.Errorf("two pages hold %v, want the ordered answer's first 20 %v", paged, want[:20])
		}
	})

	t.Run("client gone after the first item", func(t *testing.T) {
		emits := 0
		counted := wsda.Handler(countingNode{Node: node, emits: &emits})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true", strings.NewReader(q7)).WithContext(ctx)
		f := newFlushLog()
		f.onFlush = cancel
		counted.ServeHTTP(f, req)
		body := f.body.String()
		got, sum := results(t, http.StatusOK, body)
		if emits != 2 || len(got) != 1 || sum.Complete {
			t.Errorf("%d emits, %d items, summary %+v, want the evaluation stopped at the second item", emits, len(got), sum)
		}
	})

	t.Run("client disconnect", func(t *testing.T) {
		stopped := make(chan struct{})
		h := wsda.Handler(scriptedHeld{run: func(opts registry.QueryOptions) {
			opts.Held()
			emitUntilStopped(opts.Emit, stopped)
		}})
		disconnectStops(t, h, wsda.PathXQuery, stopped)
	})
}

// countingNode counts the items the evaluation hands to Emit.
type countingNode struct {
	wsda.Node
	emits *int
}

func (n countingNode) XQuery(query string, opts registry.QueryOptions) (xq.Sequence, error) {
	emit := opts.Emit
	opts.Emit = func(it xq.Item) bool {
		*n.emits++
		return emit(it)
	}
	return n.Node.XQuery(query, opts)
}

// scriptedHeld is a wsda.Node whose XQuery is a script given the options.
type scriptedHeld struct {
	wsda.Node
	run func(opts registry.QueryOptions)
}

func (n scriptedHeld) XQuery(_ string, opts registry.QueryOptions) (xq.Sequence, error) {
	n.run(opts)
	return nil, nil
}

var elapsedAttr = regexp.MustCompile(`elapsed-ms="[0-9]+"`)

// canonicalBody removes what differs run to run from a 200 response body:
// the elapsed time and, for a merge, the arrival order of its items.
func canonicalBody(t *testing.T, body string, merged bool) string {
	t.Helper()
	body = elapsedAttr.ReplaceAllString(body, `elapsed-ms="-"`)
	var items []string
	if _, err := wsda.DecodeRawStream(strings.NewReader(body), func(raw wsda.RawItem) bool {
		items = append(items, string(raw))
		return true
	}); err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, body)
	}
	if !merged || len(items) == 0 {
		return body
	}
	joined := strings.Join(items, "")
	at := strings.Index(body, items[0])
	if at < 0 || !strings.HasPrefix(body[at:], joined) {
		t.Fatalf("items are not contiguous in %s", body)
	}
	sort.Strings(items)
	return body[:at] + strings.Join(items, "") + body[at+len(joined):]
}

// bodyClass is one request of TestQueryEdgeBodiesGolden.
type bodyClass struct{ name, params, query string }

// TestQueryEdgeBodiesGolden: where a response is flushed changes none of
// its bytes. Every 200 class of TestQueryEdgeConformance, and the held
// classes beside them, is held to testdata/edge_bodies.golden, recorded
// (-update) while every streamed item was still flushed on its own;
// rewrite it only for a deliberate change of wire bytes. A merge's
// max-results answer is left out: which items arrive first is a race.
func TestQueryEdgeBodiesGolden(t *testing.T) {
	var out strings.Builder
	record := func(edge string, h http.Handler, path string, c bodyClass, merged bool) {
		status, _, body := post(t, h, path, c.params, c.query)
		if status != http.StatusOK {
			t.Fatalf("%s/%s: status %d: %s", edge, c.name, status, body)
		}
		fmt.Fprintf(&out, "== %s/%s\n%s\n", edge, c.name, canonicalBody(t, body, merged))
	}
	for _, e := range queryEdges(t) {
		classes := []bodyClass{
			{"buffered", "", allItems},
			{"streamed", "stream=true", allItems},
			{"zero-item stream", "stream=true", noItems},
			{"buffered ordered", "", orderedItems},
			{"streamed ordered", "stream=true", orderedItems},
			{"streamed path", "stream=true", pathItems},
		}
		if e.pages {
			classes = append(classes, []bodyClass{
				{"buffered max-results", "max-results=2", allItems},
				{"streamed max-results", "stream=true&max-results=2", allItems},
				{"streamed ordered max-results", "stream=true&max-results=2", orderedItems},
				{"page 1", "page-size=2", allItems},
				{"page 2", "page-size=2&page-cursor=" + wsda.EncodePageCursor(2), allItems},
				{"page 3", "page-size=2&page-cursor=" + wsda.EncodePageCursor(4), allItems},
				{"ordered page 2", "page-size=2&page-cursor=" + wsda.EncodePageCursor(2), orderedItems},
			}...)
		}
		for _, c := range classes {
			record(e.name, e.good, e.path, c, !e.pages)
		}
		record(e.name, e.mid, e.path, bodyClass{"fails after the first streamed item", "stream=true", allItems}, !e.pages)
	}
	reg := wsda.Handler(&wsda.LocalNode{Registry: workloadRegistry(t, 1000)})
	for _, c := range []bodyClass{
		{"Q7 streamed", "stream=true", q7},
		{"Q7 buffered", "", q7},
		{"Q7 streamed max-results", "stream=true&max-results=5", q7},
		{"Q7 page 2", "page-size=10&page-cursor=" + wsda.EncodePageCursor(10), q7},
	} {
		record("registry", reg, wsda.PathXQuery, c, false)
	}

	const golden = "testdata/edge_bodies.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantEntries := strings.Split(out.String(), "\n== "), strings.Split(string(want), "\n== ")
	if len(got) != len(wantEntries) {
		t.Fatalf("%d classes, the golden file has %d", len(got), len(wantEntries))
	}
	for i := range got {
		if got[i] != wantEntries[i] {
			t.Errorf("body differs from the golden file:\ngot  == %.2000s\nwant == %.2000s", got[i], wantEntries[i])
		}
	}
}
