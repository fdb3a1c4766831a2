package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"wsda/internal/tuple"
	"wsda/internal/workload"
)

// class is the end-to-end latency class of an op. Each of query, stream
// and write is one query template per workload, so its latency
// distribution is unimodal; everything else in a mix is classOther and
// shows only in throughput, CPU and per-layer numbers.
type class uint8

const (
	classQuery class = iota
	classStream
	classWrite
	classOther
	numClasses
)

var classNames = [numClasses]string{"query", "stream", "write", "other"}

// opKind is what the client does on the wire.
type opKind uint8

const (
	kQuery      opKind = iota // buffered POST /wsda/xquery
	kStream                   // POST /wsda/xquery?stream=true
	kRefresh                  // POST /wsda/publish of a live tuple
	kPublishNew               // POST /wsda/publish of an absent tuple
	kUnpublish                // GET /wsda/unpublish
	kMinQuery                 // GET /wsda/minquery?prefix=L
	kPaged                    // POST /wsda/xquery?page-size=1
	numKinds
)

// op is one generated request with what a correct answer looks like.
type op struct {
	kind  opKind
	class class
	query string       // xquery source (query, stream, paged)
	link  string       // link every returned tuple must carry ("" = unchecked); the target of unpublish and minquery
	tuple *tuple.Tuple // publish body
	want  int          // exact item count a correct answer holds
}

// describe names the op in a failure message.
func (o op) describe() string {
	if o.tuple != nil {
		return "publish " + o.tuple.Link
	}
	return o.query + o.link
}

// spec is one benchmark workload: its topology, population and mix.
type spec struct {
	name   string
	pop    int  // tuples published during set-up
	warm   int  // warm-up ops, all clients together, after the population is in
	routed bool // routerd behind -tenants in front of two registryd shards
	// clients is the closed loop's fixed concurrency; 0 means one client
	// per core.
	clients int
	sdk     bool // one sdk.Client tails /wsda/feed beside the load
	// churn splits the population into a stable half with per-tuple ctx
	// values and a churned half the client publishes and unpublishes.
	churn bool
	// replay is how many ops per class the traced replay executes by hand.
	replay int
	// mix is the request mix by op count, in deck shares.
	mix []slot
}

var specs = []spec{
	{name: "point-lookup", pop: 4000, warm: 2000, replay: 300, mix: []slot{
		{50, lookupQuery}, {25, lookupStream}, {10, refreshHot}, {8, minQueryByLink}, {7, firstPage}}},
	{name: "view-xquery", pop: 1000, warm: 80, clients: 1, replay: 100, mix: []slot{
		{4, q7Buffered}, {3, q7Streamed}, {1, refreshHot}, {2, complexOther}}},
	{name: "publish-churn", pop: 2000, warm: 200, sdk: true, churn: true, clients: 1, replay: 300, mix: []slot{
		{4, refreshHot}, {1, publishNew}, {1, unpublish}, {2, ctxBuffered}, {1, ctxStreamed}, {1, q7Other}}},
	{name: "routed-scatter", pop: 2000, warm: 60, routed: true, clients: 1, replay: 100, mix: []slot{
		{4, scatterStreamed}, {3, lookupQuery}, {2, refreshHot}, {1, scatterOther}}},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	// stableHalf is the part of publish-churn's population no client ever
	// unpublishes; its index-selected queries have exact answers.
	stableHalf = 1000
	// ctxValues spreads the stable half over this many ctx values, so each
	// value selects stableHalf/ctxValues tuples.
	ctxValues = 50
	// spareTuples are identities publish-churn keeps unpublished at the
	// start, so publish-new and unpublish can alternate in any order while
	// the live population stays near its starting size.
	spareTuples = 400
	// zipfS skews key popularity: the head fits the registry's 1 024-entry
	// compiled-query cache, the tail misses it.
	zipfS = 1.1
	// pubTTLms outlives any run, so no tuple expires under the benchmark.
	pubTTLms = 3_600_000
)

func queryByID(id string) string {
	for _, q := range workload.CanonicalQueries {
		if q.ID == id {
			return q.XQ
		}
	}
	panic("no canonical query " + id)
}

var (
	q3  = queryByID("Q3") // all replica catalogs: scatter, ~1/6 of the population
	q6  = queryByID("Q6")
	q7  = queryByID("Q7") // for/where/order by: unplannable, view path
	q8  = queryByID("Q8")
	q10 = queryByID("Q10")
	// qPaged is the first page of the whole tuple set, one item long.
	qPaged = `/tupleset/tuple`
)

func linkQuery(link string) string { return `/tupleset/tuple[@link="` + link + `"]` }
func ctxQuery(ctx string) string   { return `/tupleset/tuple[@ctx="` + ctx + `"]` }

// dataset is everything generated from the seed for one workload: the
// population, the popularity order and the exact answers.
type dataset struct {
	tuples []*tuple.Tuple // published during set-up, in publication order
	spare  []*tuple.Tuple // publish-churn identities absent at the start
	// rank maps a Zipf rank to an index into the keyed part of tuples, so
	// which keys are hot changes with the seed.
	rank []int

	wantQ3, wantQ7 int // exact result counts over tuples
	domains        int // distinct service domains (Q8's row count)
}

// buildDataset generates the workload's inputs from the seed. Identities
// (link, domain, kind) are pinned by index in internal/workload; the seed
// sets the dynamic attributes, the popularity order and the op schedule.
func buildDataset(sp spec, seed int64) *dataset {
	gen := workload.NewGen(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ds := &dataset{}
	domains := map[string]bool{}
	keyed := sp.pop
	if sp.churn {
		keyed = stableHalf
	}
	for i := 0; len(ds.tuples) < sp.pop || (sp.churn && len(ds.spare) < spareTuples); i++ {
		svc := gen.Service(i)
		kind := svc.Attributes["kind"]
		t := &tuple.Tuple{
			Link:    svc.Link,
			Type:    tuple.TypeService,
			Context: "child",
			Owner:   svc.Owner,
			Content: svc.ToXML(),
		}
		if sp.churn {
			// internal/workload gives every tuple ctx "child"; override it
			// so an index-selected query has an exact, small answer. The
			// churned half never holds a storage element, so Q7's answer
			// does not depend on which of them are live.
			if len(ds.tuples) < stableHalf {
				t.Context = fmt.Sprintf("ctx-%02d", len(ds.tuples)%ctxValues)
			} else {
				if kind == "storage-element" {
					continue
				}
				t.Context = "churn"
				if len(ds.tuples) >= sp.pop {
					ds.spare = append(ds.spare, t)
					continue
				}
			}
		}
		ds.tuples = append(ds.tuples, t)
		domains[svc.Domain] = true
		if kind == "replica-catalog" {
			ds.wantQ3++
		}
		if disk, _ := strconv.Atoi(svc.Attributes["diskGB"]); kind == "storage-element" && disk > 1000 {
			ds.wantQ7++
		}
	}
	ds.domains = len(domains)
	ds.rank = rankOrder(rng, keyed)
	return ds
}

// identityPeriod is how often internal/workload's identities repeat their
// (domain, kind, owner), and with them the shape and size of the tuple.
const identityPeriod = 60

// rankOrder draws the popularity order of n keyed tuples. Which tuples are
// hot depends on the seed; what the hot set is made of does not: rank r
// always holds a tuple of identity class r mod identityPeriod, so every
// seed's hot keys have the same mix of tuple sizes and the latency of a
// lookup does not depend on which kind of service the seed happened to
// make popular.
func rankOrder(rng *rand.Rand, n int) []int {
	classes := make([][]int, identityPeriod)
	for i := 0; i < n; i++ {
		classes[i%identityPeriod] = append(classes[i%identityPeriod], i)
	}
	for _, c := range classes {
		rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
	}
	rank := make([]int, 0, n)
	for j := 0; len(rank) < n; j++ {
		for _, c := range classes {
			if j < len(c) {
				rank = append(rank, c[j])
			}
		}
	}
	return rank
}

// clientState is one client's private generator state.
type clientState struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	// live and out are the churned tuples this client owns, by whether it
	// last published or unpublished them. Clients own disjoint tuples, so
	// no client ever unpublishes what another is about to refresh.
	live, out []*tuple.Tuple
	deck      []int // undealt slots of the current deck
	rotate    int   // complexOther's position
}

func newClientState(sp spec, ds *dataset, seed int64, client, clients int) *clientState {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	cs := &clientState{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(ds.rank)-1)),
	}
	if sp.churn {
		for i := stableHalf + client; i < len(ds.tuples); i += clients {
			cs.live = append(cs.live, ds.tuples[i])
		}
		for i := client; i < len(ds.spare); i += clients {
			cs.out = append(cs.out, ds.spare[i])
		}
	}
	return cs
}

// hot draws a tuple by Zipf popularity.
func (cs *clientState) hot(ds *dataset) *tuple.Tuple {
	return ds.tuples[ds.rank[cs.zipf.Uint64()]]
}

func refresh(t *tuple.Tuple) op {
	return op{kind: kRefresh, class: classWrite, tuple: t}
}

// slot is one entry of a workload's mix: how many ops out of every deck
// it takes, and how to make one.
type slot struct {
	share int
	make  func(ds *dataset, cs *clientState) op
}

// next draws the client's next op. Ops are dealt from a shuffled deck
// that holds each slot share times, so any stretch of a schedule a deck
// long has exactly the mix's proportions: a slice's throughput and CPU
// per op then do not depend on how many expensive ops chance dealt it.
// Only cs is read and advanced, so a client's schedule is a pure function
// of (seed, client index).
func (sp spec) next(ds *dataset, cs *clientState) op {
	if len(cs.deck) == 0 {
		for i, sl := range sp.mix {
			for n := 0; n < sl.share; n++ {
				cs.deck = append(cs.deck, i)
			}
		}
		cs.rng.Shuffle(len(cs.deck), func(a, b int) { cs.deck[a], cs.deck[b] = cs.deck[b], cs.deck[a] })
	}
	i := cs.deck[len(cs.deck)-1]
	cs.deck = cs.deck[:len(cs.deck)-1]
	return sp.mix[i].make(ds, cs)
}

func lookupQuery(ds *dataset, cs *clientState) op {
	t := cs.hot(ds)
	return op{kind: kQuery, class: classQuery, query: linkQuery(t.Link), link: t.Link, want: 1}
}

func lookupStream(ds *dataset, cs *clientState) op {
	t := cs.hot(ds)
	return op{kind: kStream, class: classStream, query: linkQuery(t.Link), link: t.Link, want: 1}
}

func refreshHot(ds *dataset, cs *clientState) op { return refresh(cs.hot(ds)) }

func minQueryByLink(ds *dataset, cs *clientState) op {
	return op{kind: kMinQuery, class: classOther, link: cs.hot(ds).Link, want: 1}
}

func firstPage(*dataset, *clientState) op {
	return op{kind: kPaged, class: classOther, query: qPaged, want: 1}
}

func q7Buffered(ds *dataset, _ *clientState) op {
	return op{kind: kQuery, class: classQuery, query: q7, want: ds.wantQ7}
}

func q7Other(ds *dataset, _ *clientState) op {
	return op{kind: kQuery, class: classOther, query: q7, want: ds.wantQ7}
}

func q7Streamed(ds *dataset, _ *clientState) op {
	return op{kind: kStream, class: classStream, query: q7, want: ds.wantQ7}
}

// complexOther rotates through Q6, Q8 and Q10. Q9 is left out: at 1.5 s
// an op it would be the whole run.
func complexOther(ds *dataset, cs *clientState) op {
	cs.rotate++
	switch cs.rotate % 3 {
	case 0:
		return op{kind: kQuery, class: classOther, query: q6, want: 3}
	case 1:
		return op{kind: kQuery, class: classOther, query: q8, want: ds.domains}
	default:
		return op{kind: kQuery, class: classOther, query: q10, want: 1}
	}
}

// publishNew and unpublish move one of the client's churned tuples. When
// the drawn side has nothing left to move the other runs instead, so the
// population holds steady and no op targets a missing tuple.
func publishNew(ds *dataset, cs *clientState) op {
	if len(cs.out) == 0 {
		return unpublish(ds, cs)
	}
	t := cs.take(&cs.out)
	cs.live = append(cs.live, t)
	return op{kind: kPublishNew, class: classWrite, tuple: t}
}

func unpublish(ds *dataset, cs *clientState) op {
	if len(cs.live) == 0 {
		return publishNew(ds, cs)
	}
	t := cs.take(&cs.live)
	cs.out = append(cs.out, t)
	return op{kind: kUnpublish, class: classWrite, link: t.Link}
}

func ctxBuffered(ds *dataset, cs *clientState) op {
	return op{kind: kQuery, class: classQuery, query: ctxQuery(cs.hot(ds).Context), want: stableHalf / ctxValues}
}

func ctxStreamed(ds *dataset, cs *clientState) op {
	return op{kind: kStream, class: classStream, query: ctxQuery(cs.hot(ds).Context), want: stableHalf / ctxValues}
}

func scatterStreamed(ds *dataset, _ *clientState) op {
	return op{kind: kStream, class: classStream, query: q3, want: ds.wantQ3}
}

func scatterOther(ds *dataset, _ *clientState) op {
	return op{kind: kQuery, class: classOther, query: q3, want: ds.wantQ3}
}

// take removes and returns a random element of *s.
func (cs *clientState) take(s *[]*tuple.Tuple) *tuple.Tuple {
	i := cs.rng.Intn(len(*s))
	t := (*s)[i]
	(*s)[i] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return t
}

// clientCount is the closed loop's concurrency. Discovery callers each
// wait for their reply, so the loop is closed; one client per core is the
// most that measures the program and not the scheduler.
func (sp spec) clientCount() int {
	if sp.clients > 0 {
		return sp.clients
	}
	return runtime.NumCPU()
}
