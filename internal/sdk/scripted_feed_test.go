package sdk

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
)

// feedScript is the one table both feed consumers are driven through: each
// step changes the origin's truth and says how the origin answers the next
// feed request. Whatever the answer, the consumer must end the step equal
// to the origin.
var feedScript = []struct {
	name      string
	publish   []string
	unpublish []string
	fault     string // "", truncated, epoch, future, 500, 401, drop
}{
	{name: "page", publish: []string{"a", "b", "c"}},
	{name: "empty page"},
	{name: "truncated", unpublish: []string{"a"}, publish: []string{"d"}, fault: "truncated"},
	{name: "epoch change", unpublish: []string{"b"}, fault: "epoch"},
	{name: "cursor from the future", publish: []string{"e"}, fault: "future"},
	{name: "500", unpublish: []string{"c"}, fault: "500"},
	{name: "401 then 200", publish: []string{"f"}, fault: "401"},
	{name: "dropped connection", unpublish: []string{"d"}, fault: "drop"},
}

// incarnation is one life of the scripted origin: a registry, its feed
// server (hence epoch) and the WSDA binding over it.
type incarnation struct {
	reg  *registry.Registry
	feed *changefeed.Server
	mux  *http.ServeMux
}

func newIncarnation() *incarnation {
	reg := registry.New(registry.Config{Name: "origin", DefaultTTL: time.Hour, JournalCap: 1024})
	inc := &incarnation{reg: reg, feed: changefeed.NewServer(reg), mux: http.NewServeMux()}
	inc.mux.Handle("/wsda/", wsda.Handler(&wsda.LocalNode{Desc: wsda.NewService("origin").Build(), Registry: reg}))
	inc.feed.Mount(inc.mux)
	return inc
}

// scriptedOrigin is a real origin whose next feed answer can be scripted.
type scriptedOrigin struct {
	srv *httptest.Server
	cur atomic.Pointer[incarnation]

	mu    sync.Mutex
	fault string   // how the next feed request is answered; "" = truthfully
	paths []string // every request path, in arrival order
}

func newScriptedOrigin(t *testing.T) *scriptedOrigin {
	o := &scriptedOrigin{}
	o.cur.Store(newIncarnation())
	o.srv = httptest.NewServer(o)
	t.Cleanup(o.srv.Close)
	return o
}

func scriptLink(name string) string { return "http://script.example/" + name }

func (o *scriptedOrigin) reg() *registry.Registry { return o.cur.Load().reg }

// arm scripts the next feed answer. An epoch change is a restart: a fresh
// registry holding the survivors under a fresh generation counter; the
// next feed request (answered truthfully by the new incarnation) carries
// the new epoch.
func (o *scriptedOrigin) arm(t *testing.T, fault string) {
	if fault == "epoch" {
		next := newIncarnation()
		for _, tp := range o.reg().MinQuery(registry.Filter{}) {
			if _, err := next.reg.Publish(tp, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		o.cur.Store(next)
	}
	o.mu.Lock()
	o.fault = fault
	o.mu.Unlock()
}

func (o *scriptedOrigin) pending() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fault != ""
}

func (o *scriptedOrigin) requested() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.paths...)
}

func (o *scriptedOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	inc := o.cur.Load()
	o.mu.Lock()
	o.paths = append(o.paths, r.URL.Path)
	fault := ""
	if r.URL.Path == changefeed.PathFeed {
		fault, o.fault = o.fault, ""
	}
	o.mu.Unlock()

	since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	lie := func(p changefeed.Page) {
		p.Epoch, p.From = inc.feed.Epoch(), since
		w.Header().Set(changefeed.EpochHeader, p.Epoch)
		fmt.Fprint(w, changefeed.MarshalPage(p).String())
	}
	switch fault {
	case "500":
		http.Error(w, "boom", http.StatusInternalServerError)
	case "401":
		http.Error(w, "who are you", http.StatusUnauthorized)
	case "drop":
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	case "truncated":
		lie(changefeed.Page{To: inc.reg.Gen(), Truncated: true})
	case "future":
		lie(changefeed.Page{To: 0})
	default:
		inc.mux.ServeHTTP(w, r)
	}
}

func (o *scriptedOrigin) mutate(t *testing.T, publish, unpublish []string) {
	for _, n := range unpublish {
		o.reg().Unpublish(scriptLink(n))
	}
	for _, n := range publish {
		tp := &tuple.Tuple{Link: scriptLink(n), Type: tuple.TypeService,
			Content: xmldoc.MustParse(fmt.Sprintf(`<service name=%q/>`, n)).DocumentElement().Clone()}
		if _, err := o.reg().Publish(tp, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
}

func liveLinks(r *registry.Registry) string {
	links := r.LiveLinks()
	sort.Strings(links)
	return strings.Join(links, " ")
}

// runScript drives one consumer through feedScript round by round: prepare
// runs before each step's mutation, round is one tailer round (scripted
// failures surface as its errors; the next round retries), and once
// settled reports the consumer caught up, check compares it to the origin.
func runScript(t *testing.T, o *scriptedOrigin, prepare func(), round func(), settled func() bool, check func(step string)) {
	t.Helper()
	for _, step := range feedScript {
		prepare()
		o.mutate(t, step.publish, step.unpublish)
		o.arm(t, step.fault)
		for n := 0; o.pending() || !settled(); n++ {
			if n == 20 {
				t.Fatalf("%s: not settled after %d rounds (origin gen %d)", step.name, n, o.reg().Gen())
			}
			round()
		}
		check(step.name)
	}
}

// TestScriptedFeedReplica: after every step the replica's registry equals
// the origin's; its first request was the snapshot, with no feed poll in
// front of it.
func TestScriptedFeedReplica(t *testing.T) {
	o := newScriptedOrigin(t)
	local := registry.New(registry.Config{Name: "replica", DefaultTTL: time.Hour})
	rep := changefeed.New(changefeed.Config{Primary: o.srv.URL, Registry: local})
	runScript(t, o, func() {},
		func() { _, _ = rep.Step(context.Background()) },
		func() bool { return rep.Ready() && rep.Stats().Cursor == o.reg().Gen() },
		func(step string) {
			if got, want := liveLinks(local), liveLinks(o.reg()); got != want {
				t.Fatalf("%s: replica holds %q, origin %q", step, got, want)
			}
		})
	if paths := o.requested(); paths[0] != changefeed.PathSnapshot {
		t.Errorf("replica's first request was %s, want the snapshot", paths[0])
	}
	if st := rep.Stats(); st.Bootstraps < 4 {
		t.Errorf("bootstraps = %d, want >= 4 (initial, truncated, epoch, future)", st.Bootstraps)
	}
}

// TestScriptedFeedSDK: every tuple ever published is looked up (so cached
// while live) before each step, and once the step has settled no lookup
// disagrees with the origin — in particular no deleted tuple is served.
// The SDK never asks for a snapshot.
func TestScriptedFeedSDK(t *testing.T) {
	o := newScriptedOrigin(t)
	c, err := New(Config{Origin: o.srv.URL, FeedWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	lookups := func(step string) {
		for _, s := range feedScript {
			for _, n := range s.publish {
				_, want := o.reg().Get(scriptLink(n))
				if _, got, err := c.Lookup(scriptLink(n)); err != nil || (step != "" && got != want) {
					t.Fatalf("%s: Lookup(%s) = %v, %v; origin has it: %v", step, n, got, err, want)
				}
			}
		}
	}
	runScript(t, o, func() { lookups("") },
		func() { _, _ = c.tail.Step(context.Background()) },
		func() bool { return c.Warm() && c.Cursor() == o.reg().Gen() },
		lookups)
	for _, p := range o.requested() {
		if p == changefeed.PathSnapshot {
			t.Fatal("the SDK requested a snapshot; it re-arms at the page's To instead")
		}
	}
	if st := c.Stats(); st.ColdDrops < 4 {
		t.Errorf("cold drops = %d, want >= 4 (truncated, future, and the failed rounds)", st.ColdDrops)
	}
}
