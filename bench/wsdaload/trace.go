package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/registry"
	"wsda/internal/sdk"
	"wsda/internal/shard"
	"wsda/internal/softstate"
	"wsda/internal/tenant"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// span is one timed call into a layer's public function. Spans of one op
// share its Op number; Parent is the span that was open when this one
// began (-1 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the replay
// ends. A nil recorder records nothing, which is "spans off".
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of open span IDs
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the part its child spans
// cover. The replay is one goroutine, so children never overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfUSOf picks the self times, in microseconds, of the spans ids name.
func selfUSOf(spans []span, ids []int) []float64 {
	self := selfTimes(spans)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(self[id]) / 1e3
	}
	return out
}

// selfUSByName groups the self times, in microseconds, of the spans keep
// accepts by span name.
func selfUSByName(spans []span, keep func(span) bool) map[string][]float64 {
	out := map[string][]float64{}
	for i, ns := range selfTimes(spans) {
		if keep(spans[i]) {
			out[spans[i].Name] = append(out[spans[i].Name], float64(ns)/1e3)
		}
	}
	return out
}

// allocsPer runs fn n times on this goroutine and returns heap
// allocations per run, from runtime.MemStats deltas.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// medianUS runs fn n times and returns the median duration in
// microseconds.
func medianUS(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = float64(time.Since(start)) / 1e3
	}
	return median(d)
}

func medianOrZero(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// newRegistry builds an in-process registry holding tuples, configured as
// registryd configures its own.
func newRegistry(name string, tuples []*tuple.Tuple) (*registry.Registry, error) {
	reg := registry.New(registry.Config{
		Name: name, DefaultTTL: 10 * time.Minute, MinTTL: time.Second, MaxTTL: 24 * time.Hour,
		MaxQuerySteps: 10_000_000,
	})
	for _, t := range tuples {
		if _, err := reg.Publish(t, pubTTLms*time.Millisecond); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func newGate() (*tenant.Gate, error) {
	set, err := tenant.Parse(strings.NewReader("bench token=" + benchToken + "\n"))
	if err != nil {
		return nil, err
	}
	return tenant.NewGate(tenant.Config{Set: set, Node: "replay"}), nil
}

// newRouter splits tuples over two in-process shards by owner and puts a
// router in front, the routed workload's topology without the HTTP hop
// between router and shard.
func newRouter(tuples []*tuple.Tuple) (*shard.Router, []shard.Backend, error) {
	const shards = 2
	parts := make([][]*tuple.Tuple, shards)
	for _, t := range tuples {
		k := shard.Owner(t.Link, shards)
		parts[k] = append(parts[k], t)
	}
	backends := make([]shard.Backend, shards)
	for k := range backends {
		reg, err := newRegistry(fmt.Sprintf("shard%d", k), parts[k])
		if err != nil {
			return nil, nil, err
		}
		backends[k] = &shard.LocalBackend{Label: fmt.Sprintf("shard%d", k), Reg: reg}
	}
	return shard.NewRouter(shard.Config{Backends: backends}), backends, nil
}

// replayOps draws ops from client 0's schedule until each gated class has
// n of them; ops of class other ride along in schedule order.
func replayOps(sp spec, ds *dataset, seed int64, n int) []op {
	cs := newClientState(sp, ds, seed, 0, sp.clientCount())
	var ops []op
	var have [numClasses]int
	for draws := 0; draws < 100*n; draws++ {
		o := sp.next(ds, cs)
		if o.class != classOther && have[o.class] >= n {
			continue
		}
		have[o.class]++
		ops = append(ops, o)
		if have[classQuery] >= n && have[classStream] >= n && have[classWrite] >= n {
			break
		}
	}
	return ops
}

// stager executes ops by hand through each layer's public functions, the
// same calls the HTTP binding makes, with a span around every call.
type stager struct {
	rec      *recorder
	reg      *registry.Registry
	gate     http.Handler // tenant gate around a no-op handler; nil = ungated workload
	routed   bool
	compiled map[string]*xq.Query // stands in for the registry's compiled-query cache
	// firstEmitUS collects query start to first Emit, per streamed op.
	firstEmitUS []float64
	// planned, viewed and streamed hold the span IDs of the registry call
	// by how the registry answered.
	planned, viewed, streamed []int
	decodePerItemUS           []float64
}

func (s *stager) compile(src string) (*xq.Query, error) {
	// Registry.Query caches by canonical source and compiles on a miss;
	// the replayed ops hit and miss the same way on a fresh cache.
	if q, ok := s.compiled[src]; ok {
		return q, nil
	}
	id := s.rec.begin("xq.compile")
	q, err := xq.Compile(src)
	s.rec.end(id)
	if err == nil {
		s.compiled[src] = q
	}
	return q, err
}

func (s *stager) admit() {
	if s.gate == nil {
		return
	}
	id := s.rec.begin("tenant.admit")
	req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery, nil)
	req.Header.Set("Authorization", "Bearer "+benchToken)
	s.gate.ServeHTTP(httptest.NewRecorder(), req)
	s.rec.end(id)
}

// run executes one op and verifies its answer.
func (s *stager) run(o op) error {
	root := s.rec.begin("op." + classNames[o.class])
	defer s.rec.end(root)
	s.admit()
	switch o.kind {
	case kQuery:
		return s.buffered(o)
	case kStream:
		return s.stream(o, 0)
	case kPaged:
		return s.stream(o, 1)
	case kRefresh, kPublishNew:
		return s.publish(o)
	case kUnpublish:
		id := s.rec.begin("registry.unpublish")
		s.reg.Unpublish(o.link)
		s.rec.end(id)
		return nil
	case kMinQuery:
		id := s.rec.begin("registry.minquery")
		ts := s.reg.MinQuery(registry.Filter{LinkPrefix: o.link})
		s.rec.end(id)
		id = s.rec.begin("tuple.to_xml")
		set := xmldoc.NewElement("tupleset")
		for _, t := range ts {
			set.AppendChild(t.ToXML())
		}
		s.rec.end(id)
		id = s.rec.begin("xmldoc.serialize")
		var buf bytes.Buffer
		_, _ = set.WriteTo(&buf)
		s.rec.end(id)
		if len(ts) != 1 || ts[0].Link != o.link {
			return fmt.Errorf("minquery %s: %d tuples", o.link, len(ts))
		}
		return nil
	}
	panic("unknown op kind")
}

func (s *stager) route(q *xq.Query) {
	if !s.routed {
		return
	}
	id := s.rec.begin("shard.route")
	shard.RouteQuery(q, "", 2)
	s.rec.end(id)
}

func (s *stager) buffered(o op) error {
	q, err := s.compile(o.query)
	if err != nil {
		return err
	}
	s.route(q)
	var plan registry.PlanInfo
	id := s.rec.begin("registry.query")
	seq, err := s.reg.QueryCompiled(q, registry.QueryOptions{Explain: &plan})
	s.rec.end(id)
	if err != nil {
		return err
	}
	if s.rec != nil && o.class == classQuery {
		if plan.Mode == "view" {
			s.viewed = append(s.viewed, id)
		} else {
			s.planned = append(s.planned, id)
		}
	}
	id = s.rec.begin("wsda.marshal_seq")
	doc := wsda.MarshalSequence(seq)
	s.rec.end(id)
	id = s.rec.begin("xmldoc.serialize")
	var buf bytes.Buffer
	_, err = doc.WriteTo(&buf)
	s.rec.end(id)
	if err != nil {
		return err
	}
	id = s.rec.begin("xmldoc.parse")
	parsed, err := xmldoc.Parse(&buf)
	s.rec.end(id)
	if err != nil {
		return err
	}
	id = s.rec.begin("wsda.unmarshal_seq")
	got, err := wsda.UnmarshalSequence(parsed)
	s.rec.end(id)
	if err != nil {
		return err
	}
	return checkSeq(o, got)
}

// stream runs a streamed query; pageSize > 0 stops one item past the page
// like the binding's page probe does.
func (s *stager) stream(o op, pageSize int) error {
	q, err := s.compile(o.query)
	if err != nil {
		return err
	}
	s.route(q)
	rr := httptest.NewRecorder()
	sw := wsda.NewStreamWriter(rr)
	var first time.Duration
	n := 0
	start := time.Now()
	qid := s.rec.begin("registry.query_streamed")
	_, err = s.reg.QueryCompiled(q, registry.QueryOptions{Emit: func(it xq.Item) bool {
		if n == 0 {
			first = time.Since(start)
		}
		if pageSize > 0 && n >= pageSize {
			return false
		}
		n++
		w := s.rec.begin("wsda.write_item")
		err := sw.WriteItem(it)
		s.rec.end(w)
		return err == nil
	}})
	s.rec.end(qid)
	if err != nil {
		return err
	}
	id := s.rec.begin("wsda.stream_close")
	err = sw.Close(wsda.StreamSummary{Complete: true})
	s.rec.end(id)
	if err != nil {
		return err
	}
	got := 0
	id = s.rec.begin("wsda.decode_stream")
	sum, err := wsda.DecodeStream(rr.Body, func(xq.Item) bool { got++; return true })
	s.rec.end(id)
	if err != nil {
		return err
	}
	if s.rec != nil && pageSize == 0 {
		s.firstEmitUS = append(s.firstEmitUS, float64(first)/1e3)
		s.streamed = append(s.streamed, qid)
		if got > 0 {
			s.decodePerItemUS = append(s.decodePerItemUS, float64(s.rec.spans[id].End-s.rec.spans[id].Start)/1e3/float64(got))
		}
	}
	if got != o.want || sum.Count != got {
		return fmt.Errorf("stream: %d items decoded, summary says %d, want %d", got, sum.Count, o.want)
	}
	return nil
}

func (s *stager) publish(o op) error {
	id := s.rec.begin("tuple.to_xml")
	req := xmldoc.NewElement("publish")
	req.SetAttr("ttl-ms", fmt.Sprint(pubTTLms))
	req.AppendChild(o.tuple.ToXML())
	s.rec.end(id)
	id = s.rec.begin("xmldoc.serialize")
	var buf bytes.Buffer
	_, _ = req.WriteTo(&buf)
	s.rec.end(id)
	id = s.rec.begin("xmldoc.parse")
	doc, err := xmldoc.Parse(&buf)
	s.rec.end(id)
	if err != nil {
		return err
	}
	id = s.rec.begin("tuple.from_xml")
	t, err := tuple.FromXML(doc.DocumentElement().FirstChildElement("tuple"))
	s.rec.end(id)
	if err != nil {
		return err
	}
	id = s.rec.begin("registry.publish")
	granted, err := s.reg.Publish(t, pubTTLms*time.Millisecond)
	s.rec.end(id)
	if err == nil && granted <= 0 {
		err = fmt.Errorf("publish %s: granted %v", t.Link, granted)
	}
	return err
}

// replay is the traced run: the same generated ops, in-process, one
// goroutine, by hand through each layer and then whole through the HTTP
// binding. It fills the replay half of the per-layer metrics into p and
// writes the spans to outDir/trace-<workload>.json.
func replay(sp spec, ds *dataset, seed int64, outDir string, p map[string]metric) error {
	ops := replayOps(sp, ds, seed, sp.replay)
	gate, err := newGate()
	if err != nil {
		return err
	}
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})

	// Staged pass. Every read op also runs once with spans off, the two in
	// alternating order, which is what trace.overhead_pct compares.
	reg, err := newRegistry("replay", ds.tuples)
	if err != nil {
		return err
	}
	rec := &recorder{t0: time.Now()}
	on := &stager{rec: rec, reg: reg, routed: sp.routed, compiled: map[string]*xq.Query{}}
	off := &stager{reg: reg, routed: sp.routed, compiled: map[string]*xq.Query{}}
	if sp.routed {
		on.gate, off.gate = gate.Wrap(noop), gate.Wrap(noop)
	}
	var overhead []float64 // spans on over spans off, op by op
	stagedUS := make([]float64, len(ops))
	for i, o := range ops {
		rec.op = i
		readOnly := o.class == classQuery || o.class == classStream
		timed := func(s *stager) (time.Duration, error) {
			start := time.Now()
			err := s.run(o)
			return time.Since(start), err
		}
		var dOn, dOff time.Duration
		var err error
		if readOnly && i%2 == 1 {
			dOff, err = timed(off)
		}
		if err == nil {
			dOn, err = timed(on)
		}
		if err == nil && readOnly && i%2 == 0 {
			dOff, err = timed(off)
		}
		if err != nil {
			return fmt.Errorf("staged %s op %d: %w", classNames[o.class], i, err)
		}
		stagedUS[i] = float64(dOn) / 1e3
		if readOnly {
			overhead = append(overhead, float64(dOn)/float64(dOff))
		}
	}

	// Whole pass: the same ops over a fresh population, through the HTTP
	// binding on a loopback listener, as one client.
	wholeHandler, err := wholePath(sp, ds, gate)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(wholeHandler)
	defer srv.Close()
	token := ""
	if sp.routed {
		token = benchToken
	}
	lc := newLoadClient(srv.URL, token, nil)
	defer lc.close()
	wholeUS := make([]float64, len(ops))
	for i, o := range ops {
		start := time.Now()
		if _, err := lc.do(o); err != nil {
			return fmt.Errorf("whole %s op %d: %w", classNames[o.class], i, err)
		}
		wholeUS[i] = float64(time.Since(start)) / 1e3
	}
	var sumStaged, sumWhole float64
	var queryStaged, queryWhole []float64
	var firstQuery op
	for i, o := range ops {
		sumStaged += stagedUS[i]
		sumWhole += wholeUS[i]
		if o.class == classQuery {
			if len(queryWhole) == 0 {
				firstQuery = o
			}
			queryStaged = append(queryStaged, stagedUS[i])
			queryWhole = append(queryWhole, wholeUS[i])
		}
	}

	// Stage numbers come from the gated classes only: each is one query
	// template, so a stage's times are one distribution.
	self := selfUSByName(rec.spans, func(sp span) bool { return ops[sp.Op].class != classOther })
	p["trace.stage_sum_ratio"] = metric{sumStaged / sumWhole, "ratio"}
	p["trace.overhead_pct"] = metric{100 * (median(overhead) - 1), "%"}
	p["wsda.roundtrip_us"] = metric{median(queryWhole), "us"}
	p["wsda.http_other_us"] = metric{median(queryWhole) - median(queryStaged), "us"}
	p["wsda.roundtrip_allocs"] = metric{allocsPer(20, func() { _, _ = lc.do(firstQuery) }), "count"}
	p["wsda.marshal_seq_us"] = metric{medianOrZero(self["wsda.marshal_seq"]), "us"}
	p["wsda.unmarshal_seq_us"] = metric{medianOrZero(self["wsda.unmarshal_seq"]), "us"}
	p["wsda.write_item_us"] = metric{medianOrZero(self["wsda.write_item"]), "us"}
	p["wsda.decode_stream_us_per_item"] = metric{medianOrZero(on.decodePerItemUS), "us"}
	p["xq.compile_us"] = metric{medianOrZero(self["xq.compile"]), "us"}
	p["registry.query_planned_us"] = metric{medianOrZero(selfUSOf(rec.spans, on.planned)), "us"}
	p["registry.query_view_us"] = metric{medianOrZero(selfUSOf(rec.spans, on.viewed)), "us"}
	p["registry.query_streamed_us"] = metric{medianOrZero(selfUSOf(rec.spans, on.streamed)), "us"}
	p["registry.first_emit_us"] = metric{medianOrZero(on.firstEmitUS), "us"}
	p["registry.publish_us"] = metric{medianOrZero(self["registry.publish"]), "us"}
	p["tuple.from_xml_us"] = metric{medianOrZero(self["tuple.from_xml"]), "us"}

	if err := probes(ds, reg, gate.Wrap(noop), firstQuery, p); err != nil {
		return err
	}

	out, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{sp.name, seed, rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+sp.name+".json"), out, 0o644)
}

// cannedBackend is a shard that answers every query with the same items
// and does nothing else.
type cannedBackend struct {
	label string
	items []xq.Item
}

var errCanned = errors.New("canned backend: queries only")

func (b *cannedBackend) Name() string { return b.label }
func (b *cannedBackend) Publish(context.Context, *tuple.Tuple, time.Duration) (time.Duration, error) {
	return 0, errCanned
}
func (b *cannedBackend) Unpublish(context.Context, string) error { return errCanned }
func (b *cannedBackend) MinQuery(context.Context, registry.Filter) ([]*tuple.Tuple, error) {
	return nil, errCanned
}
func (b *cannedBackend) QueryStream(_ context.Context, _ shard.QuerySpec, _ func(string), onItem func(xq.Item) bool) (*wsda.StreamSummary, error) {
	n := 0
	for _, it := range b.items {
		if !onItem(it) {
			break
		}
		n++
	}
	return &wsda.StreamSummary{Count: n, Complete: n == len(b.items)}, nil
}
func (b *cannedBackend) Healthy(context.Context) error { return nil }
func (b *cannedBackend) Ready(context.Context) error   { return nil }
func (b *cannedBackend) Assign(context.Context, shard.Assignment) (int, error) {
	return 0, errCanned
}

// wholePath is the workload's in-process serving stack over a fresh
// population: the WSDA binding on one registry, or the tenant gate and the
// router over two LocalBackends.
func wholePath(sp spec, ds *dataset, gate *tenant.Gate) (http.Handler, error) {
	if sp.routed {
		rt, _, err := newRouter(ds.tuples)
		if err != nil {
			return nil, err
		}
		return gate.Wrap(rt.Handler()), nil
	}
	reg, err := newRegistry("whole", ds.tuples)
	if err != nil {
		return nil, err
	}
	return wsda.HandlerWithObservability(&wsda.LocalNode{Registry: reg}, nil, nil), nil
}

// probes times the public functions the replayed ops do not isolate:
// fixed-size loops on one goroutine, the same in every workload, over the
// workload's own population.
func probes(ds *dataset, reg *registry.Registry, gated http.Handler, query op, p map[string]metric) error {
	hot := ds.tuples[ds.rank[0]]

	// registry and xq
	var view *xmldoc.Node
	p["registry.build_view_us"] = metric{medianUS(9, func() { view = reg.BuildView(registry.Filter{}, registry.Freshness{}) }), "us"}
	q, err := xq.Compile(query.query)
	if err != nil {
		return err
	}
	p["xq.compile_allocs"] = metric{allocsPer(50, func() { _, _ = xq.Compile(query.query) }), "count"}
	p["xq.eval_us"] = metric{medianUS(9, func() { _, _ = q.Eval(&xq.Options{Context: view, MaxSteps: 10_000_000}) }), "us"}
	p["registry.minquery_us"] = metric{medianUS(100, func() { reg.MinQuery(registry.Filter{LinkPrefix: hot.Link}) }), "us"}
	p["registry.publish_allocs"] = metric{allocsPer(200, func() { _, _ = reg.Publish(hot, pubTTLms*time.Millisecond) }), "count"}

	// xmldoc over the serialized view, the largest document the registry makes
	var doc bytes.Buffer
	ser := medianUS(5, func() { doc.Reset(); _, _ = view.WriteTo(&doc) })
	mb := float64(doc.Len()) / 1e6
	p["xmldoc.serialize_mb_s"] = metric{mb / (ser / 1e6), "MB/s"}
	raw := doc.Bytes()
	parse := medianUS(5, func() { _, _ = xmldoc.Parse(bytes.NewReader(raw)) })
	p["xmldoc.parse_mb_s"] = metric{mb / (parse / 1e6), "MB/s"}

	// softstate: a private store, the registry's is not exported
	store := softstate.New[*tuple.Tuple](nil)
	i := 0
	p["softstate.put_us"] = metric{medianUS(2000, func() {
		t := ds.tuples[i%len(ds.tuples)]
		store.Put(t.Link, t, time.Hour)
		i++
	}), "us"}
	p["softstate.get_us"] = metric{medianUS(2000, func() { store.Get(ds.tuples[i%len(ds.tuples)].Link); i++ }), "us"}
	gen := store.Gen()
	p["softstate.changes_since_us"] = metric{medianUS(200, func() { store.ChangesSince(gen - 64) }), "us"}

	// wsda item writer
	item := xq.Item(hot.ToXML())
	sw := wsda.NewStreamWriter(httptest.NewRecorder())
	p["wsda.write_item_allocs"] = metric{allocsPer(200, func() { _ = sw.WriteItem(item) }), "count"}

	// tenant gate around a no-op handler
	req := httptest.NewRequest(http.MethodPost, wsda.PathXQuery, nil)
	req.Header.Set("Authorization", "Bearer "+benchToken)
	rr := httptest.NewRecorder()
	p["tenant.admit_us"] = metric{medianUS(2000, func() { gated.ServeHTTP(rr, req) }), "us"}

	// shard: router over two LocalBackends, no HTTP between them
	start := time.Now()
	const owners = 100_000
	for k := 0; k < owners; k++ {
		shard.Owner(ds.tuples[k%len(ds.tuples)].Link, 2)
	}
	p["shard.owner_ns"] = metric{float64(time.Since(start)) / owners, "ns"}
	rt, backends, err := newRouter(ds.tuples)
	if err != nil {
		return err
	}
	routed := rt.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		routed.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rr
	}
	p["shard.routed_roundtrip_us"] = metric{medianUS(200, func() { post(wsda.PathXQuery, linkQuery(hot.Link)) }), "us"}
	// The router's own share of a scatter: the same handler over shards
	// that hand back ready-made items at no cost.
	canned := make([]shard.Backend, len(backends))
	items := 0
	for k, b := range backends {
		cb := &cannedBackend{label: b.Name()}
		if _, err := b.QueryStream(context.Background(), shard.QuerySpec{Query: q3}, nil, func(it xq.Item) bool {
			cb.items = append(cb.items, it)
			return true
		}); err != nil {
			return err
		}
		items += len(cb.items)
		canned[k] = cb
	}
	merge := shard.NewRouter(shard.Config{Backends: canned}).Handler()
	scatter := func() {
		merge.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, wsda.PathXQuery+"?stream=true", strings.NewReader(q3)))
	}
	p["shard.merge_us_per_item"] = metric{medianUS(9, scatter) / float64(items), "us"}
	p["shard.merge_allocs_per_item"] = metric{allocsPer(5, scatter) / float64(items), "count"}

	// changefeed: one page of 64 upserts
	page := changefeed.Page{Epoch: "replay", From: 0, To: 64}
	for _, t := range ds.tuples[:64] {
		page.Changes = append(page.Changes, registry.Change{Key: t.Link, Tuple: t})
	}
	var wire string
	p["changefeed.page_marshal_us"] = metric{medianUS(50, func() { wire = changefeed.MarshalPage(page).String() }), "us"}
	var perr error
	p["changefeed.page_unmarshal_us"] = metric{medianUS(50, func() {
		d, err := xmldoc.ParseString(wire)
		if err == nil {
			_, err = changefeed.UnmarshalPage(d)
		}
		if err != nil {
			perr = err
		}
	}), "us"}
	if perr != nil {
		return perr
	}

	// sdk: a cache tailing the feed of an in-process registry
	mux := http.NewServeMux()
	mux.Handle("/wsda/", wsda.Handler(&wsda.LocalNode{Registry: reg}))
	changefeed.NewServer(reg).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cache, err := sdk.New(sdk.Config{Origin: srv.URL})
	if err != nil {
		return err
	}
	cache.Start()
	defer cache.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cache.WaitCursor(ctx, 0); err != nil {
		return fmt.Errorf("sdk probe: %w", err)
	}
	k := 0
	var lerr error
	lookup := func(link string) {
		if _, ok, err := cache.Lookup(link); err != nil || !ok {
			lerr = fmt.Errorf("sdk lookup %s: found=%v err=%v", link, ok, err)
		}
	}
	p["sdk.lookup_miss_us"] = metric{medianUS(100, func() { lookup(ds.tuples[ds.rank[k]].Link); k++ }), "us"}
	start = time.Now()
	const hits = 100_000
	for n := 0; n < hits; n++ {
		lookup(hot.Link)
	}
	p["sdk.lookup_hit_ns"] = metric{float64(time.Since(start)) / hits, "ns"}
	return lerr
}
