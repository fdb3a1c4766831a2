package xq_test

import (
	"sync"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/workload"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// plannerCorpus is the registry's planner/interpreter differential corpus
// (registry/plan_test.go): there it holds planned execution to the
// interpreter, here it holds the interpreter's compiled predicates to the
// reference evaluation, which closes the chain closures ≡ general
// interpretation, planned ≡ interpreted.
var plannerCorpus = []string{
	`/tupleset/tuple`,
	`/tupleset/tuple[@link="http://cern.ch/replica-catalog-0000/wsda/presenter"]`,
	`/tupleset/tuple[@link="http://nowhere.example/absent"]`,
	`/tupleset/tuple[@type="service"]`,
	`/tupleset/tuple[@type="service"][@ctx="child"]`,
	`/tupleset/tuple[@ctx="child" and @owner="cms"]`,
	`/tupleset/tuple[@type="a"][@type="b"]`,
	`/tupleset/tuple[@ctx=""]`,
	`/tupleset/tuple[content]`,
	`/tupleset/tuple[content/service/@domain="cern.ch"]`,
	`/tupleset/tuple[@type="service"]/@link`,
	`/tupleset/tuple/@owner`,
	`/tupleset/tuple/content/service[@domain="infn.it"]`,
	`/tupleset/tuple/content/service[attr[@name="kind"]/@value="replica-catalog"]`,
	`/tupleset/tuple/content/service[interface[@type="XQuery"]/operation/bind/@protocol="http"]`,
	`/tupleset/tuple/content/service/attr[@name="load"]/@value`,
	`/tupleset/tuple[content/service/attr[@name="load"]/@value=0.25]`,
	`count(/tupleset/tuple)`,
	`string(/tupleset/@registry)`,
	`/tupleset/tuple[1]`,
	`/tupleset/tuple[@type!="service"]`,
	`/tupleset/tuple[number(content/service/attr[@name="load"]/@value) < 0.5]`,
	`for $t in /tupleset/tuple where $t/@owner="cms" return $t/@link`,
	`//service/@domain`,
}

// TestDiscoveryQueriesMatchGeneral: every query of the canonical mix and of
// the planner corpus gives, through the shared predicate engine, what the
// reference evaluation gives, over a generated tuple set in its plain and
// its shared form, buffered and streamed.
func TestDiscoveryQueriesMatchGeneral(t *testing.T) {
	reg := registry.New(registry.Config{Name: "mix", DefaultTTL: time.Hour})
	if err := workload.NewGen(1).Populate(reg, 120, time.Hour); err != nil {
		t.Fatal(err)
	}
	plain := reg.BuildView(registry.Filter{}, registry.Freshness{})
	queries := append([]string(nil), plannerCorpus...)
	for _, cq := range workload.CanonicalQueries {
		queries = append(queries, cq.XQ)
	}
	for _, d := range []*xmldoc.Node{plain, xq.ShareTopLevel(plain)} {
		for _, src := range queries {
			got, gotErr := xq.MustCompile(src).EvalDoc(d)
			want, wantErr := xq.MustCompileGeneral(src).EvalDoc(d)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: err %v, reference %v", src, gotErr, wantErr)
			}
			if g, w := xq.Serialize(got), xq.Serialize(want); g != w {
				t.Errorf("%s:\ncompiled  %s\nreference %s", src, g, w)
			}
			var streamed xq.Sequence
			_, err := xq.MustCompile(src).Eval(&xq.Options{Context: d, Emit: func(it xq.Item) bool {
				streamed = append(streamed, it)
				return true
			}})
			if (err == nil) != (wantErr == nil) || xq.Serialize(streamed) != xq.Serialize(want) {
				t.Errorf("%s: streamed result differs from the reference (err %v)", src, err)
			}
		}
	}
}

// TestCompiledQuerySharedAcrossTupleSets: the registry caches compiled
// queries and evaluates one concurrently over different pinned snapshots,
// so nothing an evaluation memoises may sit on the Query. One compiled Q8
// and one compiled Q9 run from many goroutines over two tuple sets of
// different content; each goroutine must see its own document's answer.
// Run under -race (make check, make stress).
func TestCompiledQuerySharedAcrossTupleSets(t *testing.T) {
	var docs []*xmldoc.Node
	for seed, n := range []int{150, 90} {
		reg := registry.New(registry.Config{Name: "mix", DefaultTTL: time.Hour})
		if err := workload.NewGen(int64(seed+1)).Populate(reg, n, time.Hour); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, xq.ShareTopLevel(reg.BuildView(registry.Filter{}, registry.Freshness{})))
	}
	for _, cq := range workload.CanonicalQueries[7:9] {
		q := xq.MustCompile(cq.XQ)
		var want []string
		for _, d := range docs {
			ref, err := xq.MustCompileGeneral(cq.XQ).EvalDoc(d)
			if err != nil || len(ref) == 0 {
				t.Fatalf("%s reference: %d items, err %v", cq.ID, len(ref), err)
			}
			want = append(want, xq.Serialize(ref))
		}
		if want[0] == want[1] {
			t.Fatalf("%s: the two tuple sets give one answer; the test cannot tell them apart", cq.ID)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					got, err := q.EvalDoc(docs[g%2])
					if err != nil || xq.Serialize(got) != want[g%2] {
						t.Errorf("%s, goroutine %d: another tuple set's answer (err %v)", cq.ID, g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
