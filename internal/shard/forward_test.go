package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// forwardQueries are result shapes whose item bytes the router must carry
// unchanged: whole tuples, projected sub-elements, attribute nodes, text
// nodes, atomics, constructed elements (the E20 query shapes among them).
var forwardQueries = []string{
	`/tupleset/tuple[@type="service"]`,
	`/tupleset/tuple/content/service`,
	`/tupleset/tuple/@link`,
	`/tupleset/tuple/content/service/note/text()`,
	`for $t in /tupleset/tuple return string($t/@link)`,
	`for $t in /tupleset/tuple return <hit link="{$t/@link}">{$t/content/service/note}</hit>`,
	`count(/tupleset/tuple)`,
	`/tupleset/tuple[@link="http://node-003.example.org/wsda/presenter"]`,
}

// fetchItems posts query at a router and returns the response's item
// elements (sorted: the merge order of a scatter is not fixed) and the
// accounting, read off the bytes so nothing is normalized on the way.
func fetchItems(t *testing.T, base, query string, streamed bool) (items []string, sum *wsda.StreamSummary) {
	t.Helper()
	url := base + wsda.PathXQuery
	if streamed {
		url += "?stream=true"
	}
	resp, err := http.Post(url, "text/xml", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
	}
	sum, err = wsda.DecodeRawStream(resp.Body, func(raw wsda.RawItem) bool {
		items = append(items, string(raw))
		return true
	})
	if err != nil {
		t.Fatalf("%s: the router's own output does not decode: %v", query, err)
	}
	sort.Strings(items)
	return items, sum
}

// populate publishes n tuples with content into the shards owning them.
func populate(t *testing.T, regs []*registry.Registry, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		link := fmt.Sprintf("http://node-%03d.example.org/wsda/presenter", i)
		tp := &tuple.Tuple{Link: link, Type: "service", Context: "child",
			Content: xmldoc.MustParse(fmt.Sprintf(
				`<service name="svc%d" q="&lt;&quot;&amp;"><note>a&lt;b &amp; "c" %d</note><empty/></service>`, i, i)).DocumentElement()}
		if _, err := regs[Owner(link, len(regs))].Publish(tp, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
}

// The same population behind two in-process shards and behind two shards
// across HTTP must give the same items, byte for byte, streamed and
// buffered: a forwarded span is what decode -> re-marshal used to produce.
func TestForwardedSpansMatchLocalItems(t *testing.T) {
	regs := []*registry.Registry{newReg("shard0"), newReg("shard1")}
	populate(t, regs, 40)
	local := make([]Backend, 2)
	remote := make([]Backend, 2)
	for i, reg := range regs {
		local[i] = &LocalBackend{Label: fmt.Sprintf("shard%d", i), Reg: reg}
		srv := httptest.NewServer(wsda.Handler(&wsda.LocalNode{Registry: reg}))
		defer srv.Close()
		remote[i] = NewHTTPBackend(srv.URL, srv.Client())
	}
	localSrv := httptest.NewServer(NewRouter(Config{Backends: local}).Handler())
	defer localSrv.Close()
	remoteSrv := httptest.NewServer(NewRouter(Config{Backends: remote}).Handler())
	defer remoteSrv.Close()

	for _, q := range forwardQueries {
		want, _ := fetchItems(t, localSrv.URL, q, true)
		if len(want) == 0 {
			t.Fatalf("%s: no items", q)
		}
		for _, streamed := range []bool{true, false} {
			for name, base := range map[string]string{"local": localSrv.URL, "http": remoteSrv.URL} {
				got, sum := fetchItems(t, base, q, streamed)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s (%s, streamed=%v): item bytes differ:\n got %q\nwant %q", q, name, streamed, got, want)
				}
				if !sum.Complete || sum.Count != len(want) {
					t.Errorf("%s (%s, streamed=%v): summary %+v", q, name, streamed, sum)
				}
			}
		}
	}
}

// reusingBackend hands every item over as a RawItem in one buffer it
// overwrites the moment onItem returns — the span-lifetime rule at its
// harshest. The router must have written (streamed) or copied (buffered)
// the bytes by then.
type reusingBackend struct {
	Backend
	items []string
}

func (b *reusingBackend) QueryStream(_ context.Context, _ QuerySpec, _ func(string), onItem func(xq.Item) bool) (*wsda.StreamSummary, error) {
	buf := make([]byte, 0, 256)
	for _, it := range b.items {
		buf = append(buf[:0], it...)
		if !onItem(wsda.RawItem(buf)) {
			break
		}
		for i := range buf {
			buf[i] = '#'
		}
	}
	return &wsda.StreamSummary{Count: len(b.items), Complete: true}, nil
}

func TestRouterHonoursSpanLifetime(t *testing.T) {
	var backends []Backend
	var want []string
	for s := 0; s < 2; s++ {
		b := &reusingBackend{Backend: &LocalBackend{Label: fmt.Sprintf("shard%d", s), Reg: newReg("r")}}
		for i := 0; i < 200; i++ {
			b.items = append(b.items, fmt.Sprintf(`<node><s shard="%d" n="%d"/></node>`, s, i))
		}
		want = append(want, b.items...)
		backends = append(backends, b)
	}
	sort.Strings(want)
	srv := httptest.NewServer(NewRouter(Config{Backends: backends}).Handler())
	defer srv.Close()
	for _, streamed := range []bool{true, false} {
		got, sum := fetchItems(t, srv.URL, `/tupleset/tuple`, streamed)
		if strings.Join(got, "\n") != strings.Join(want, "\n") || !sum.Complete {
			t.Errorf("streamed=%v: %d items (want %d), summary %+v; first %q", streamed, len(got), len(want), sum, got[:1])
		}
	}
}

// A shard that lies — stops mid-item, sends unbalanced tags, an element
// that is no result item, an undefined entity, or never closes <results> —
// costs the answer that shard's remaining items and nothing else: HTTP 200,
// the healthy shard's items intact, complete="false" with the liar named,
// one shard error counted, output the client's decoder accepts, and no
// goroutine left behind.
func TestRouterSurvivesLyingShard(t *testing.T) {
	healthy := newReg("healthy")
	populate(t, []*registry.Registry{healthy}, 25)
	goodSrv := httptest.NewServer(wsda.Handler(&wsda.LocalNode{Registry: healthy}))
	defer goodSrv.Close()
	reference := httptest.NewServer(NewRouter(Config{Backends: []Backend{
		&LocalBackend{Label: "only", Reg: healthy}}}).Handler())
	defer reference.Close()
	const query = `/tupleset/tuple/content/service`
	want, _ := fetchItems(t, reference.URL, query, true)

	const first = `<node><service name="from-the-liar"/></node>`
	lies := map[string]string{
		"stops mid-item":       `<results streamed="true">` + first + `<node><service na`,
		"unbalanced tags":      `<results streamed="true">` + first + `<node><a></b></node><summary count="2" complete="true" elapsed-ms="0"/></results>`,
		"bogus child":          `<results streamed="true">` + first + `<bogus/><summary count="1" complete="true" elapsed-ms="0"/></results>`,
		"undefined entity":     `<results streamed="true">` + first + `<node>&nope;</node><summary count="2" complete="true" elapsed-ms="0"/></results>`,
		"never closes results": `<results streamed="true">` + first + `<summary count="1" complete="true" elapsed-ms="0"/>`,
	}
	for name, body := range lies {
		for _, streamed := range []bool{true, false} {
			liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", "text/xml")
				_, _ = io.WriteString(w, body)
			}))
			hc := &http.Client{Transport: &http.Transport{}}
			m := telemetry.NewMetrics()
			rt := NewRouter(Config{Metrics: m, Backends: []Backend{
				NewHTTPBackend(goodSrv.URL, hc), NewHTTPBackend(liar.URL, hc)}})
			rec := httptest.NewRecorder()
			before := runtime.NumGoroutine()

			path := wsda.PathXQuery
			if streamed {
				path += "?stream=true"
			}
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(query)))

			hc.CloseIdleConnections()
			liar.Close()
			settled := false
			for i := 0; i < 200 && !settled; i++ {
				if settled = runtime.NumGoroutine() <= before; !settled {
					time.Sleep(5 * time.Millisecond)
				}
			}
			if !settled {
				t.Errorf("%s (streamed=%v): %d goroutines before the request, %d after", name, streamed, before, runtime.NumGoroutine())
			}

			if rec.Code != http.StatusOK {
				t.Fatalf("%s (streamed=%v): status %d: %s", name, streamed, rec.Code, rec.Body)
			}
			var got []string
			sum, err := wsda.DecodeRawStream(bytes.NewReader(rec.Body.Bytes()), func(raw wsda.RawItem) bool {
				if string(raw) != first { // forwarded before the fault: stays
					got = append(got, string(raw))
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s (streamed=%v): router output does not decode: %v\n%s", name, streamed, err, rec.Body)
			}
			if _, err := wsda.DecodeStream(bytes.NewReader(rec.Body.Bytes()), nil); err != nil {
				t.Errorf("%s (streamed=%v): client decoder: %v", name, streamed, err)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s (streamed=%v): healthy shard's items damaged: %d of %d", name, streamed, len(got), len(want))
			}
			if sum.Complete || !strings.Contains(sum.Shortfall, liar.URL) || sum.NodesContacted != 2 || sum.NodesResponded != 1 {
				t.Errorf("%s (streamed=%v): summary %+v does not blame %s", name, streamed, sum, liar.URL)
			}
			var prom strings.Builder
			m.WritePrometheus(&prom)
			errLine := regexp.MustCompile(`(?m)^wsda_router_shard_errors_total\{shard="([^"]*)"\} (\d+)$`).FindAllStringSubmatch(prom.String(), -1)
			if len(errLine) != 1 || errLine[0][1] != liar.URL || errLine[0][2] != "1" {
				t.Errorf("%s (streamed=%v): shard error counters = %v, want exactly one for the liar", name, streamed, errLine)
			}
		}
	}
}

// A streamed item over the limit ends that shard's stream like any other
// fault; the reader does not buffer the rest of it.
func TestRouterOversizeItemIsShortfall(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 17 MiB")
	}
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `<results streamed="true"><node><a b="`)
		chunk := bytes.Repeat([]byte("x"), 1<<20)
		for i := 0; i < 17; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		_, _ = io.WriteString(w, `"/></node></results>`)
	}))
	defer huge.Close()
	healthy := newReg("healthy")
	populate(t, []*registry.Registry{healthy}, 3)
	rt := NewRouter(Config{Backends: []Backend{
		&LocalBackend{Label: "healthy", Reg: healthy}, NewHTTPBackend(huge.URL, huge.Client())}})
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()
	got, sum := fetchItems(t, srv.URL, `/tupleset/tuple`, true)
	if len(got) != 3 || sum.Complete || !strings.Contains(sum.Shortfall, "larger than") {
		t.Fatalf("%d items, summary %+v; want the 3 healthy items and the size limit in the shortfall", len(got), sum)
	}
}
