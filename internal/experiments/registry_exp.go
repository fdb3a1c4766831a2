package experiments

import (
	"fmt"
	"time"

	"wsda/internal/baseline"
	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/workload"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
)

// ldapEquivalents maps canonical query IDs to their LDAP-filter
// formulation where one exists (experiment E1). Absence means the query
// class is beyond the filter language — the expressiveness gap of thesis
// Ch. 3.5.
var ldapEquivalents = map[string]string{
	"Q2": `(domain=cern.ch)`,
	"Q3": `(kind=replica-catalog)`,
	"Q4": `(&(vo=cms)(load<=0.4999))`,
}

// E1QueryTypes reproduces the query-capability matrix: which of the
// canonical simple/medium/complex discovery queries each paradigm can
// express, and at what cost, over a population of n services.
func E1QueryTypes(n int) (*Table, error) {
	gen := workload.NewGen(42)
	reg := registry.New(registry.Config{Name: "e1", DefaultTTL: time.Hour})
	kl := baseline.NewKeyLookup()
	dir := baseline.NewDirectory()
	for i := 0; i < n; i++ {
		tp := gen.Tuple(i)
		if _, err := reg.Publish(tp, time.Hour); err != nil {
			return nil, err
		}
		kl.Put(tp)
		dir.Put(tp)
	}
	keyLink := gen.Tuple(0).Link

	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("Query capability matrix over %d services (thesis Ch. 3)", n),
		Note: "XQuery answers all classes; key-lookup only exact keys; LDAP filters\n" +
			"flat attributes but not structure, joins or aggregation.",
		Header: []string{"query", "class", "xquery", "hits", "keylookup", "ldap"},
	}
	for _, cq := range workload.CanonicalQueries {
		start := time.Now()
		seq, err := reg.Query(cq.XQ, registry.QueryOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cq.ID, err)
		}
		xqCell := fdur(time.Since(start))

		klCell := "inexpressible"
		if cq.KeyLookup {
			start = time.Now()
			if _, ok := kl.Lookup(keyLink); !ok {
				return nil, fmt.Errorf("%s: key lookup missed", cq.ID)
			}
			klCell = fdur(time.Since(start))
		}
		ldapCell := "inexpressible"
		if f, ok := ldapEquivalents[cq.ID]; ok {
			start = time.Now()
			if _, err := dir.Search(f); err != nil {
				return nil, fmt.Errorf("%s: ldap: %w", cq.ID, err)
			}
			ldapCell = fdur(time.Since(start))
		} else if cq.ID == "Q1" {
			ldapCell = "(as keylookup)"
		}
		t.Add(cq.ID, string(cq.Class), xqCell, fint(len(seq)), klCell, ldapCell)
	}
	return t, nil
}

// E2Publish reproduces the publication-throughput figure: first-time
// publication and soft-state refresh rates as the tuple set grows.
func E2Publish(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Registry publication and refresh throughput (thesis Ch. 4)",
		Note:   "refresh re-publishes the same links; it keeps cached content and is cheaper.",
		Header: []string{"tuples", "publish", "publish-rate", "refresh", "refresh-rate"},
	}
	for _, n := range sizes {
		gen := workload.NewGen(7)
		reg := registry.New(registry.Config{Name: "e2", DefaultTTL: time.Hour})
		tuples := make([]*tuple.Tuple, n)
		for i := range tuples {
			tuples[i] = gen.Tuple(i)
		}
		start := time.Now()
		for _, tp := range tuples {
			if _, err := reg.Publish(tp, time.Hour); err != nil {
				return nil, err
			}
		}
		pub := time.Since(start)

		// Heartbeat refreshes: link/type only, no content.
		start = time.Now()
		for _, tp := range tuples {
			hb := &tuple.Tuple{Link: tp.Link, Type: tp.Type, Context: tp.Context}
			if _, err := reg.Publish(hb, time.Hour); err != nil {
				return nil, err
			}
		}
		ref := time.Since(start)
		if reg.Len() != n {
			return nil, fmt.Errorf("E2: registry holds %d, want %d", reg.Len(), n)
		}
		t.Add(fint(n), fdur(pub), frate(n, pub), fdur(ref), frate(n, ref))
	}
	return t, nil
}

// E3Cache reproduces the cache/freshness figure: query cost as a function
// of the fraction of tuples whose content must be pulled from providers.
// Provider pulls are simulated with the given per-pull latency.
func E3Cache(n int, missPercents []int, pullCost time.Duration) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: fmt.Sprintf("Content cache vs. provider pulls, %d tuples (thesis Ch. 4.5, 4.7)", n),
		Note: fmt.Sprintf("miss%% of tuples lack a cached copy; each pull costs %v.\n", pullCost) +
			"The second query row shows the cache warming effect: pulls fill the cache.",
		Header: []string{"miss%", "pulls", "query1", "query2", "hit-rate2"},
	}
	for _, miss := range missPercents {
		gen := workload.NewGen(3)
		fetched := 0
		reg := registry.New(registry.Config{
			Name:       "e3",
			DefaultTTL: time.Hour,
			Fetcher: registry.FetcherFunc(func(link string) (*xmldoc.Node, error) {
				fetched++
				if pullCost > 0 {
					time.Sleep(pullCost)
				}
				return xmldoc.ParseString(`<service name="pulled"><load>0.5</load></service>`)
			}),
		})
		for i := 0; i < n; i++ {
			tp := gen.Tuple(i)
			if i*100 < miss*n {
				tp.Content = nil // no cached copy: a pull will be needed
			}
			if _, err := reg.Publish(tp, time.Hour); err != nil {
				return nil, err
			}
		}
		fresh := registry.Freshness{PullMissing: true}
		start := time.Now()
		if _, err := reg.Query(`count(/tupleset/tuple/content/service)`, registry.QueryOptions{Freshness: fresh}); err != nil {
			return nil, err
		}
		q1 := time.Since(start)
		pulls := fetched

		start = time.Now()
		if _, err := reg.Query(`count(/tupleset/tuple/content/service)`, registry.QueryOptions{Freshness: fresh}); err != nil {
			return nil, err
		}
		q2 := time.Since(start)
		st := reg.Stats()
		hitRate := "n/a"
		if st.CacheHits+st.CacheMisses > 0 {
			hitRate = ffloat(float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses))
		}
		t.Add(fint(miss), fint(pulls), fdur(q1), fdur(q2), hitRate)
	}
	return t, nil
}

// E4SoftState reproduces the soft-state dynamics figure: the fraction of
// live tuples over (virtual) time when a share of providers dies, for
// several TTL/refresh-period ratios. The dead providers' tuples disappear
// within one TTL without any explicit deregistration — the core soft-state
// claim of thesis Ch. 2.6/4.6.
func E4SoftState(providers int, ratios []float64, deadFraction float64) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: fmt.Sprintf("Soft-state expiry after %d%% of %d providers fail at t=5p", int(deadFraction*100), providers),
		Note: "p = refresh period, TTL = ratio*p. Live fraction sampled each period;\n" +
			"failed providers purge themselves within one TTL of the failure.",
		Header: []string{"ttl/p", "t=4p", "t=5p", "t=6p", "t=7p", "t=9p", "purge-lag(p)"},
	}
	period := time.Second
	for _, ratio := range ratios {
		clk := newFakeClock()
		reg := registry.New(registry.Config{
			Name: "e4", DefaultTTL: time.Hour,
			MinTTL: time.Millisecond,
			Now:    clk.Now,
		})
		ttl := time.Duration(ratio * float64(period))
		gen := workload.NewGen(11)
		tuples := make([]*tuple.Tuple, providers)
		for i := range tuples {
			tuples[i] = gen.Tuple(i)
		}
		dead := int(deadFraction * float64(providers))
		samples := map[int]float64{}
		var purgeAt time.Time
		deathTime := clk.Now().Add(5 * period)
		for step := 0; step <= 90; step++ {
			tEpoch := step % 10
			if tEpoch == 0 {
				// Refresh round: live providers re-publish.
				for i, tp := range tuples {
					if clk.Now().After(deathTime) && i < dead {
						continue // failed provider: no more heartbeats
					}
					hb := &tuple.Tuple{Link: tp.Link, Type: tp.Type}
					if _, err := reg.Publish(hb, ttl); err != nil {
						return nil, err
					}
				}
			}
			epoch := step / 10
			if tEpoch == 0 {
				samples[epoch] = float64(reg.Len()) / float64(providers)
				if purgeAt.IsZero() && clk.Now().After(deathTime) && reg.Len() <= providers-dead {
					purgeAt = clk.Now()
				}
			}
			clk.Advance(period / 10)
		}
		lag := "never"
		if !purgeAt.IsZero() {
			lag = ffloat(purgeAt.Sub(deathTime).Seconds() / period.Seconds())
		}
		t.Add(ffloat(ratio),
			ffloat(samples[4]), ffloat(samples[5]), ffloat(samples[6]),
			ffloat(samples[7]), ffloat(samples[9]), lag)
	}
	return t, nil
}

// E12WSDAPrimitives reproduces the primitive-composition comparison of
// thesis Ch. 5: the same discovery task solved with the minimal interface
// (MinQuery + client-side filtering) versus the powerful XQuery interface
// (server-side filtering). The byte columns estimate transfer volume as
// the serialized size of what crosses the interface.
func E12WSDAPrimitives(n int) (*Table, error) {
	gen := workload.NewGen(42)
	reg := registry.New(registry.Config{Name: "e12", DefaultTTL: time.Hour})
	if err := gen.Populate(reg, n, time.Hour); err != nil {
		return nil, err
	}
	node := &wsda.LocalNode{
		Desc:     wsda.NewService("e12").Op(wsda.IfaceXQuery, "query", "").Build(),
		Registry: reg,
	}

	t := &Table{
		ID:    "E12",
		Title: fmt.Sprintf("Minimal vs. powerful query primitive, task over %d services (thesis Ch. 5)", n),
		Note: "task: names of cern.ch replica catalogs with load < 0.5.\n" +
			"MinQuery ships whole tuples and filters at the client; XQuery filters at the server.",
		Header: []string{"primitive", "time", "transferred", "bytes", "hits"},
	}

	// Minimal: MinQuery by type, then client-side scan of descriptions.
	start := time.Now()
	tuples, err := node.MinQuery(registry.Filter{Type: tuple.TypeService})
	if err != nil {
		return nil, err
	}
	bytes := 0
	hits := 0
	for _, tp := range tuples {
		bytes += len(tp.ToXML().String())
		svc, err := wsda.ServiceFromXML(tp.Content)
		if err != nil {
			continue
		}
		if svc.Domain == "cern.ch" && svc.Attributes["kind"] == "replica-catalog" {
			var load float64
			fmt.Sscanf(svc.Attributes["load"], "%f", &load)
			if load < 0.5 {
				hits++
			}
		}
	}
	t.Add("MinQuery+client", fdur(time.Since(start)), fint(len(tuples)), fint(bytes), fint(hits))

	// Powerful: server-side XQuery.
	start = time.Now()
	seq, err := node.XQuery(`
		for $s in /tupleset/tuple/content/service
		where $s/@domain = "cern.ch"
		  and $s/attr[@name="kind"]/@value = "replica-catalog"
		  and number($s/attr[@name="load"]/@value) < 0.5
		return string($s/@name)`, registry.QueryOptions{})
	if err != nil {
		return nil, err
	}
	bytes = len(wsda.MarshalSequence(seq).String())
	t.Add("XQuery server-side", fdur(time.Since(start)), fint(len(seq)), fint(bytes), fint(len(seq)))
	if len(seq) != hits {
		return nil, fmt.Errorf("E12: primitives disagree: %d vs %d", len(seq), hits)
	}
	return t, nil
}

// E14ViewMaintenance measures the tuple-set snapshots (ISSUE 2, 14): cold
// first-query cost, warm steady-state cost of pinning the current snapshot
// over an unchanged store, and query cost when every query must first
// advance it past bounded publish churn, per store size. Warm cost should
// be size-independent and churn cost should track the number of changed
// tuples rather than the store size.
func E14ViewMaintenance(sizes []int, churn int) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Incremental tuple-set view maintenance (thesis Ch. 4)",
		Note: fmt.Sprintf("warm = repeated identical query, unchanged store; churn = %d tuples\n", churn) +
			"republished between queries. Warm cost is store-size independent; churn\n" +
			"cost is proportional to the changed tuples, not the store size.",
		Header: []string{"tuples", "cold", "warm", "churn", "view-hits", "rebuilds"},
	}
	const (
		warmIters  = 500
		churnIters = 100
		query      = `string(/tupleset/@registry)`
	)
	for _, n := range sizes {
		gen := workload.NewGen(11)
		reg := registry.New(registry.Config{Name: "e14", DefaultTTL: time.Hour})
		if err := gen.Populate(reg, n, time.Hour); err != nil {
			return nil, err
		}

		start := time.Now()
		if _, err := reg.Query(query, registry.QueryOptions{}); err != nil {
			return nil, err
		}
		cold := time.Since(start)

		start = time.Now()
		for i := 0; i < warmIters; i++ {
			if _, err := reg.Query(query, registry.QueryOptions{}); err != nil {
				return nil, err
			}
		}
		warm := time.Since(start) / warmIters

		start = time.Now()
		for i := 0; i < churnIters; i++ {
			for j := 0; j < churn; j++ {
				if _, err := reg.Publish(gen.Tuple((i*churn+j)%n), time.Hour); err != nil {
					return nil, err
				}
			}
			if _, err := reg.Query(query, registry.QueryOptions{}); err != nil {
				return nil, err
			}
		}
		churnCost := time.Since(start) / churnIters

		st := reg.Stats()
		t.Add(fint(n), fdur(cold), fdur(warm), fdur(churnCost),
			fint64(st.ViewHits), fint64(st.ViewRebuilds))
	}
	return t, nil
}
