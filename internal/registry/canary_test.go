package registry_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/pdp"
	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/workload"
	"wsda/internal/wsda"
)

// TestSharedElementsSurviveEveryPath is the mutation canary on shared
// result elements: Q1–Q10 go out through every path that reads the
// registry's shared <tuple> elements — buffered, streamed and paged over
// HTTP, the router's merge over a LocalBackend, and MarshalSequence into a
// PDP message — and a change-feed page is marshalled from ChangesSince,
// which shares the stored content. Afterwards every member of the pinned
// tuple set must still be byte-identical to its tuple's ToXML(), which
// renders that content again, in two forms: its frozen bytes, and a clone
// of it, which is unfrozen and so writes the tree as it now is (the frozen
// bytes alone would hide a change to the tree). A writer that annotates a
// result node in place (a SetAttr in AppendItem, say) changes the next
// query's answer for everyone; this is where it shows.
func TestSharedElementsSurviveEveryPath(t *testing.T) {
	r := registry.New(registry.Config{Name: "canary", DefaultTTL: time.Hour})
	if err := workload.NewGen(42).Populate(r, 200, time.Hour); err != nil {
		t.Fatal(err)
	}
	direct := httptest.NewServer(wsda.Handler(&wsda.LocalNode{Desc: wsda.NewService("canary").Build(), Registry: r}))
	defer direct.Close()
	routed := httptest.NewServer(shard.NewRouter(shard.Config{
		Backends: []shard.Backend{&shard.LocalBackend{Label: "shard0", Reg: r}},
	}).Handler())
	defer routed.Close()

	post := func(base, params, query string) {
		t.Helper()
		resp, err := http.Post(base+wsda.PathXQuery+params, "text/xml", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s%s: status %d: %s", base, params, resp.StatusCode, body)
		}
	}
	shared := 0 // Q1–Q5 return parts of the shared elements themselves
	for i, q := range workload.CanonicalQueries {
		for _, params := range []string{"", "?stream=true", "?page-size=3"} {
			post(direct.URL, params, q.XQ)
		}
		for _, params := range []string{"", "?stream=true"} {
			post(routed.URL, params, q.XQ)
		}
		seq, err := r.Query(q.XQ, registry.QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		_ = (&pdp.Message{Kind: pdp.KindResult, TxID: "canary", Items: seq, HitCount: len(seq)}).Encode()
		if i < 5 {
			shared += len(seq)
		}
	}
	if shared == 0 {
		t.Fatal("Q1–Q5 returned no shared nodes: the canary watches nothing")
	}
	// The change feed's page is marshalled from the stored content itself.
	if _, changes, ok := r.ChangesSince(0); !ok || len(changes) != 200 {
		t.Fatalf("ChangesSince(0): %d changes, ok %v", len(changes), ok)
	} else {
		_ = changefeed.MarshalPage(changefeed.Page{Changes: changes}).String()
	}

	members, tuples := registry.PinnedMembers(r, registry.Filter{})
	if len(members) != 200 {
		t.Fatalf("pinned set has %d members, want 200", len(members))
	}
	for i, m := range members {
		tree, frozen, want := m.Clone().String(), m.String(), tuples[i].ToXML().String()
		if tree != want || frozen != want {
			t.Fatalf("member %d (%s) changed after serving results:\ntree   %s\nfrozen %s\nwant   %s", i, tuples[i].Link, tree, frozen, want)
		}
	}
}
