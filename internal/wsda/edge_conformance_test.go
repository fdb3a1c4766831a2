package wsda_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/simnet"
	"wsda/internal/topology"
	"wsda/internal/tuple"
	"wsda/internal/updf"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// One table, three edges: whatever answers a POSTed query — a registry's
// /wsda/xquery, the router's scatter-gather, a peer's /netquery — reads the
// request and writes the response through the one wsda.Edge, so they must
// agree on every status, text and delivery shape below. Each edge serves
// six matching items; what differs is only how its evaluation is made to
// fail early, fail mid-stream, or run until the client walks away.

const (
	edgeItems  = 6
	allItems   = `for $s in //service return string($s/@name)`
	noItems    = `/tupleset/tuple[@type="nope"]`
	syntaxErr  = `for $x in`
	tooLarge   = "query exceeds 1048576 bytes"
	mergedPage = "pagination is not supported on a merged result"
)

func edgeRegistry(t *testing.T, name string, ids ...int) *registry.Registry {
	t.Helper()
	reg := registry.New(registry.Config{Name: name, DefaultTTL: time.Hour})
	for _, i := range ids {
		_, err := reg.Publish(&tuple.Tuple{
			Link: fmt.Sprintf("http://svc-%d.example.org/wsda/presenter", i), Type: tuple.TypeService,
			Content: xmldoc.MustParse(fmt.Sprintf(`<service name="svc%d"/>`, i)).DocumentElement(),
		}, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// scriptedNode is a wsda.Node whose XQuery is a script.
type scriptedNode struct {
	wsda.Node
	run func(emit func(xq.Item) bool) error
}

func (n scriptedNode) XQuery(_ string, opts registry.QueryOptions) (xq.Sequence, error) {
	return nil, n.run(opts.Emit)
}

// scriptedBackend is a shard whose QueryStream is a script.
type scriptedBackend struct {
	shard.Backend
	run func(ctx context.Context, emit func(xq.Item) bool) error
}

func (scriptedBackend) Name() string { return "scripted" }

func (b scriptedBackend) QueryStream(ctx context.Context, _ shard.QuerySpec, _ func(string), onItem func(xq.Item) bool) (*wsda.StreamSummary, error) {
	if err := b.run(ctx, onItem); err != nil {
		return nil, err
	}
	return &wsda.StreamSummary{Complete: true}, nil
}

// peerEdge mounts a /netquery handler over an originator on net whose entry
// node is entry; script, when set, is registered as that entry node.
func peerEdge(t *testing.T, net *simnet.Network, entry string, script pdp.Handler) http.Handler {
	t.Helper()
	if script != nil {
		if err := net.Register(entry, script); err != nil {
			t.Fatal(err)
		}
	}
	o, err := updf.NewOriginator("orig-"+entry, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return updf.NetQueryHandler(o, entry, nil, nil)
}

// emitUntilStopped produces items until emit says stop, then reports it.
func emitUntilStopped(emit func(xq.Item) bool, stopped chan<- struct{}) {
	for i := int64(0); emit(i); i++ {
		time.Sleep(time.Millisecond)
	}
	close(stopped)
}

type queryEdge struct {
	name   string
	path   string // request path, with the edge's fixed parameters
	pages  bool
	header string // the header a zero-item stream must still carry

	good        http.Handler // six items for allItems, none for noItems
	early       http.Handler // the evaluation fails before any item ...
	earlyQuery  string       // ... of this query ...
	earlyStatus int          // ... and is answered with this status
	mid         http.Handler // one item, then the evaluation fails
	// endless serves items until its evaluation is stopped, which closes
	// the returned channel.
	endless func(t *testing.T) (http.Handler, <-chan struct{})
}

func queryEdges(t *testing.T) []queryEdge {
	boom := errors.New("boom")

	reg := edgeRegistry(t, "direct", 0, 1, 2, 3, 4, 5)
	direct := queryEdge{
		name: "registry", path: wsda.PathXQuery, pages: true, header: wsda.HeaderPlan,
		good:  wsda.Handler(&wsda.LocalNode{Registry: reg}),
		early: wsda.Handler(&wsda.LocalNode{Registry: reg}), earlyQuery: syntaxErr, earlyStatus: http.StatusUnprocessableEntity,
		mid: wsda.Handler(scriptedNode{run: func(emit func(xq.Item) bool) error {
			emit(int64(1))
			return boom
		}}),
		endless: func(*testing.T) (http.Handler, <-chan struct{}) {
			stopped := make(chan struct{})
			return wsda.Handler(scriptedNode{run: func(emit func(xq.Item) bool) error {
				emitUntilStopped(emit, stopped)
				return nil
			}}), stopped
		},
	}

	shards := []shard.Backend{
		&shard.LocalBackend{Label: "s0", Reg: edgeRegistry(t, "s0", 0, 2, 4)},
		&shard.LocalBackend{Label: "s1", Reg: edgeRegistry(t, "s1", 1, 3, 5)},
	}
	router := shard.NewRouter(shard.Config{Backends: shards}).Handler()
	routed := queryEdge{
		name: "router", path: wsda.PathXQuery, header: shard.HeaderRoute,
		good:  router,
		early: router, earlyQuery: syntaxErr, earlyStatus: http.StatusUnprocessableEntity,
		mid: shard.NewRouter(shard.Config{Backends: []shard.Backend{shards[0],
			scriptedBackend{run: func(_ context.Context, emit func(xq.Item) bool) error {
				emit(int64(1))
				return boom
			}}}}).Handler(),
		endless: func(*testing.T) (http.Handler, <-chan struct{}) {
			stopped := make(chan struct{})
			return shard.NewRouter(shard.Config{Backends: []shard.Backend{
				scriptedBackend{run: func(ctx context.Context, emit func(xq.Item) bool) error {
					emitUntilStopped(emit, stopped)
					<-ctx.Done() // the fan-out is cancelled too
					return nil
				}}}}).Handler(), stopped
		},
	}

	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	cluster, err := updf.BuildCluster(topology.Line(3), updf.ClusterConfig{
		Net: net,
		RegistryFor: func(i int) *registry.Registry {
			return edgeRegistry(t, fmt.Sprintf("peer%d", i), 2*i, 2*i+1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	peer := queryEdge{
		name: "netquery", path: wsda.PathNetQuery + "?mode=routed&radius=-1&timeout-ms=5000&pipeline=true",
		good: peerEdge(t, net, "node/0", nil),
		// A network query ships its source to the peers, so what fails
		// before any item is the submission: nobody answers to this entry.
		early: peerEdge(t, net, "nobody/0", nil), earlyQuery: allItems, earlyStatus: http.StatusUnprocessableEntity,
		mid: peerEdge(t, net, "flaky/0", func(m *pdp.Message) {
			if m.Kind != pdp.KindQuery {
				return
			}
			_ = net.Send(&pdp.Message{Kind: pdp.KindResult, TxID: m.TxID, From: m.To, To: m.From,
				Source: m.To, Items: xq.Sequence{int64(1)}, HitCount: 1})
			_ = net.Send(&pdp.Message{Kind: pdp.KindResult, TxID: m.TxID, From: m.To, To: m.From,
				Final: true, Err: "boom", HitCount: 1, NodesContacted: 2, NodesResponded: 1})
		}),
		endless: func(t *testing.T) (http.Handler, <-chan struct{}) {
			stopped := make(chan struct{})
			var closed atomic.Bool
			return peerEdge(t, net, "endless/"+t.Name(), func(m *pdp.Message) {
				switch m.Kind {
				case pdp.KindQuery:
					go emitUntilStopped(func(it xq.Item) bool {
						_ = net.Send(&pdp.Message{Kind: pdp.KindResult, TxID: m.TxID, From: m.To, To: m.From,
							Source: m.To, Items: xq.Sequence{it}, HitCount: 1})
						return !closed.Load()
					}, stopped)
				case pdp.KindClose:
					closed.Store(true)
				}
			}), stopped
		},
	}
	return []queryEdge{direct, routed, peer}
}

// post sends one query to h (mounted on a real server, so streaming and
// framing are net/http's) and returns status, headers and body.
func post(t *testing.T, h http.Handler, path, params, query string) (int, http.Header, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+withParams(path, params), "text/xml", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

func withParams(path, params string) string {
	switch {
	case params == "":
		return path
	case strings.Contains(path, "?"):
		return path + "&" + params
	}
	return path + "?" + params
}

// results decodes a 200 response into its item bytes and accounting.
func results(t *testing.T, status int, body string) ([]string, *wsda.StreamSummary) {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var items []string
	sum, err := wsda.DecodeRawStream(strings.NewReader(body), func(raw wsda.RawItem) bool {
		items = append(items, string(raw))
		return true
	})
	if err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, body)
	}
	return items, sum
}

func TestQueryEdgeConformance(t *testing.T) {
	for _, e := range queryEdges(t) {
		t.Run(e.name, func(t *testing.T) {
			t.Run("refusals", func(t *testing.T) {
				srv := httptest.NewServer(e.good)
				defer srv.Close()
				resp, err := http.Get(srv.URL + e.path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Errorf("GET = %d, want 405", resp.StatusCode)
				}
				if status, _, body := post(t, e.good, e.path, "", strings.Repeat("x", wsda.MaxQueryBytes+1)); status != http.StatusRequestEntityTooLarge || strings.TrimSpace(body) != tooLarge {
					t.Errorf("oversize body = %d %q, want 413 %q", status, body, tooLarge)
				}
				pageText := func(own string) string {
					if e.pages {
						return own
					}
					return mergedPage
				}
				for params, text := range map[string]string{
					"max-results=x":                           "bad max-results",
					"max-results=-1":                          "bad max-results",
					"page-size=0":                             pageText("bad page-size"),
					"page-size=2&page-cursor=garbage!":        pageText("bad page-cursor"),
					"page-cursor=" + wsda.EncodePageCursor(2): pageText("page-cursor requires page-size"),
					"page-size=2":                             pageText(""),
				} {
					status, _, body := post(t, e.good, e.path, params, allItems)
					if text == "" {
						if status != http.StatusOK {
							t.Errorf("%s = %d, want 200", params, status)
						}
					} else if status != http.StatusBadRequest || !strings.HasPrefix(body, text) {
						t.Errorf("%s = %d %q, want 400 %q", params, status, body, text)
					}
				}
			})

			t.Run("fails before the first item", func(t *testing.T) {
				for _, params := range []string{"", "stream=true"} {
					status, _, body := post(t, e.early, e.path, params, e.earlyQuery)
					if status != e.earlyStatus || strings.Contains(body, "<results") || strings.TrimSpace(body) == "" {
						t.Errorf("[%s] = %d %q, want %d, the error text and no <results>", params, status, body, e.earlyStatus)
					}
				}
			})

			t.Run("delivery shapes agree", func(t *testing.T) {
				status, _, body := post(t, e.good, e.path, "", allItems)
				buffered, sum := results(t, status, body)
				if len(buffered) != edgeItems || sum.Count != edgeItems || !sum.Complete {
					t.Fatalf("buffered: %d items, summary %+v, want %d complete", len(buffered), sum, edgeItems)
				}
				if strings.Contains(body, "<summary") || strings.Contains(body, "streamed=") {
					t.Errorf("buffered response carries stream framing: %s", body)
				}
				want := append([]string(nil), buffered...)
				if !e.pages {
					sort.Strings(want) // a merge delivers in arrival order
				}

				status, _, body = post(t, e.good, e.path, "stream=true", allItems)
				streamed, sum := results(t, status, body)
				if !strings.HasPrefix(body, `<results streamed="true">`) || !strings.Contains(body, "<summary") {
					t.Errorf("streamed response lacks stream framing: %s", body)
				}
				if !e.pages {
					sort.Strings(streamed)
				}
				if fmt.Sprint(streamed) != fmt.Sprint(want) || sum.Count != edgeItems || !sum.Complete {
					t.Errorf("streamed: items %v, summary %+v, want the buffered items, complete", streamed, sum)
				}

				for _, params := range []string{"max-results=2", "stream=true&max-results=2"} {
					status, _, body := post(t, e.good, e.path, params, allItems)
					got, sum := results(t, status, body)
					if len(got) != 2 || sum.Count != 2 {
						t.Errorf("[%s]: %d items, count %d, want 2", params, len(got), sum.Count)
					}
					// The bare-count root of a registry's buffered answer
					// has no complete attribute to clear.
					if sum.Complete && !(e.pages && params == "max-results=2") {
						t.Errorf("[%s]: a truncated result reports complete=true", params)
					}
					for _, it := range got {
						if !strings.Contains(fmt.Sprint(want), it) {
							t.Errorf("[%s]: item %s is not one of the result's", params, it)
						}
					}
				}

				if !e.pages {
					return
				}
				var paged []string
				cursor := ""
				for page := 1; page <= 3; page++ {
					params := "page-size=2"
					if cursor != "" {
						params += "&page-cursor=" + cursor
					}
					status, _, body := post(t, e.good, e.path, params, allItems)
					got, sum := results(t, status, body)
					if len(got) != 2 || sum.Count != 2 {
						t.Fatalf("page %d: %d items, count %d, want 2", page, len(got), sum.Count)
					}
					if last := page == 3; sum.Complete != last || (sum.NextCursor == "") != last {
						t.Fatalf("page %d: complete=%v next-cursor=%q", page, sum.Complete, sum.NextCursor)
					}
					paged, cursor = append(paged, got...), sum.NextCursor
				}
				if fmt.Sprint(paged) != fmt.Sprint(buffered) {
					t.Errorf("three pages hold %v, the buffered answer %v", paged, buffered)
				}
			})

			t.Run("fails after the first streamed item", func(t *testing.T) {
				status, _, body := post(t, e.mid, e.path, "stream=true", allItems)
				items, sum := results(t, status, body)
				if len(items) == 0 || sum.Complete || !strings.Contains(body, `complete="false"`) {
					t.Errorf("%d items, summary %+v, want items and a complete=\"false\" trailer: %s", len(items), sum, body)
				}
			})

			t.Run("zero-item stream", func(t *testing.T) {
				status, hdr, body := post(t, e.good, e.path, "stream=true", noItems)
				items, sum := results(t, status, body)
				if len(items) != 0 || sum.Count != 0 || !sum.Complete || !strings.Contains(body, "<summary") {
					t.Errorf("%d items, summary %+v, want an empty complete stream: %s", len(items), sum, body)
				}
				if e.header != "" && hdr.Get(e.header) == "" {
					t.Errorf("zero-item stream lacks %s", e.header)
				}
			})

			t.Run("client disconnect stops the evaluation", func(t *testing.T) {
				h, stopped := e.endless(t)
				before := runtime.NumGoroutine()
				srv := httptest.NewServer(h)
				resp, err := http.Post(srv.URL+withParams(e.path, "stream=true"), "text/xml", strings.NewReader(allItems))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(resp.Body, make([]byte, len(`<results streamed="true"><atomic`))); err != nil {
					t.Fatalf("no first item: %v", err)
				}
				resp.Body.Close() // walk away mid-stream
				select {
				case <-stopped:
				case <-time.After(5 * time.Second):
					t.Fatal("the evaluation kept running after the client left")
				}
				srv.Close()
				http.DefaultClient.CloseIdleConnections()
				settled := false
				for i := 0; i < 400 && !settled; i++ {
					if settled = runtime.NumGoroutine() <= before; !settled {
						time.Sleep(5 * time.Millisecond)
					}
				}
				if !settled {
					t.Errorf("%d goroutines before the request, %d after", before, runtime.NumGoroutine())
				}
			})
		})
	}
}
