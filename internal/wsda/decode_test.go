package wsda

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsda/internal/registry"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// Decoded items share node chunks, but not lists: setting an attribute on
// one, or appending a child at any depth, leaves every other item of the
// stream as it was.
func TestDecodedItemsAreIndependent(t *testing.T) {
	var items []string
	for i := 0; i < 40; i++ {
		items = append(items, fmt.Sprintf(`<node><s n="%d" k="v"><a x="1">t</a><b/></s></node>`, i))
	}
	doc := `<results>` + strings.Join(items, "") + `</results>`
	decode := func() []*xmldoc.Node {
		var out []*xmldoc.Node
		if _, err := DecodeStream(strings.NewReader(doc), func(it xq.Item) bool {
			out = append(out, it.(*xmldoc.Node))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := decode(), decode()
	for i := range got {
		if i%3 != 1 {
			continue
		}
		el := got[i]
		el.SetAttr("added", "1").SetAttr("k", "changed")
		el.AppendChild(xmldoc.NewElement("c"))
		el.Children[0].AppendChild(xmldoc.NewText("more")).SetAttr("y", "2")
		el.Children[1].AppendChild(xmldoc.NewElement("d"))
	}
	for i := range got {
		if i%3 == 1 {
			if got[i].String() == want[i].String() {
				t.Fatalf("item %d did not change", i)
			}
			continue
		}
		if got[i].String() != want[i].String() {
			t.Fatalf("item %d changed with its neighbours: %s, want %s", i, got[i], want[i])
		}
	}
}

// DecodeStream's pooled state starts clean after a stream it left early,
// a malformed one and one with an oversize item.
func TestDecodeStreamAfterSpoiledStreams(t *testing.T) {
	good := `<results><node><a b="1">x</a></node><atomic type="integer">7</atomic><summary count="2" complete="true"/></results>`
	want, wsum, err := parseRawItems(strings.NewReader(good))
	if err != nil || len(want) != 2 {
		t.Fatalf("good: %d items, %v", len(want), err)
	}
	spoil := []func(){
		func() { // early stop
			_, _ = DecodeStream(strings.NewReader(good), func(xq.Item) bool { return false })
		},
		func() { // malformed
			_, _ = DecodeStream(strings.NewReader(`<results><node><a><b c="1"></a></node>`), nil)
		},
		func() { // oversize item
			big := `<results><node><a b="` + strings.Repeat("x", xmldoc.MaxItemBytes) + `"/></node></results>`
			if _, err := DecodeStream(strings.NewReader(big), nil); !errors.Is(err, xmldoc.ErrItemTooLarge) {
				t.Fatalf("oversize item: %v", err)
			}
		},
	}
	for i, s := range spoil {
		s()
		for range 3 { // the pool may hand out any of the decoders it keeps
			var got []xq.Item
			sum, err := DecodeStream(strings.NewReader(good), func(it xq.Item) bool { got = append(got, it); return true })
			if err != nil || *sum != *wsum || len(got) != len(want) {
				t.Fatalf("after spoiled stream %d: %d items, %+v, %v", i, len(got), *sum, err)
			}
			for j := range got {
				sameItem(t, got[j], want[j])
			}
		}
	}
}

// capHandler answers with a <results> document of exactly size bytes, then
// extra bytes of trailing whitespace. Each item pads itself with a comment,
// so the document is many moderate items, none near MaxItemBytes.
func capHandler(size, extra int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		const head, tail, open, close = `<results>`, `</results>`, `<node><!--`, `--></node>`
		item := open + strings.Repeat("x", 1<<20-len(open)-len(close)) + close
		left := size - len(head) - len(tail)
		_, _ = w.Write([]byte(head))
		for ; left >= len(item); left -= len(item) {
			_, _ = w.Write([]byte(item))
		}
		_, _ = w.Write([]byte(open + strings.Repeat("x", left-len(open)-len(close)) + close + tail + strings.Repeat(" ", extra)))
	})
}

// An answer past MaxResponseBytes fails as too large, on a fetch and on
// XQuery's decode alike, where it used to be cut short and reported as
// malformed XML; one of exactly MaxResponseBytes is read whole.
func TestResponseCap(t *testing.T) {
	over := httptest.NewServer(capHandler(MaxResponseBytes, 1))
	defer over.Close()
	c := NewClient(over.URL)
	if _, err := c.XQuery("x", registry.QueryOptions{}); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("XQuery: %v, want ErrResponseTooLarge", err)
	}
	if _, err := c.MinQuery(registry.Filter{}); !errors.Is(err, ErrResponseTooLarge) || err.Error() != "wsda: response exceeds 64 MiB" {
		t.Errorf("MinQuery (a fetch): %v, want ErrResponseTooLarge", err)
	}

	exact := httptest.NewServer(capHandler(MaxResponseBytes, 0))
	defer exact.Close()
	c = NewClient(exact.URL)
	seq, err := c.XQuery("x", registry.QueryOptions{})
	if err != nil || len(seq) != MaxResponseBytes>>20 {
		t.Errorf("XQuery of exactly the cap: %d items, %v", len(seq), err)
	}
	if _, err := c.MinQuery(registry.Filter{}); err == nil || errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("MinQuery of exactly the cap: %v, want it read whole (and refused as no <tupleset>)", err)
	}
}

// DecodeRawStream shares DecodeStream's pooled Framers: what a caller kept
// of a stream it left early or that failed mid-way (the bytes it copied,
// the trees it was handed) stays as delivered while later streams, raw and
// decoded, run on the same Framers, and those streams read their own items.
func TestPooledFramerKeepsDeliveredItems(t *testing.T) {
	items := func(tag string, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<node><%s n="%d">%s</%s></node>`, tag, i, strings.Repeat(tag, 40), tag)
		}
		return b.String()
	}
	first := map[string]struct {
		doc  string
		stop int // items delivered before onItem says stop
	}{
		"early stop": {`<results>` + items("a", 30) + `<summary count="30" complete="true"/></results>`, 20},
		"malformed":  {`<results>` + items("a", 30) + `<node><a></b></node></results>`, 40},
	}
	later := `<results>` + items("b", 30) + `<summary count="30" complete="true"/></results>`
	for name, c := range first {
		var kept []string
		var trees []*xmldoc.Node
		_, rawErr := DecodeRawStream(strings.NewReader(c.doc), func(raw RawItem) bool {
			kept = append(kept, string(raw))
			return len(kept) < c.stop
		})
		_, err := DecodeStream(strings.NewReader(c.doc), func(it xq.Item) bool {
			trees = append(trees, it.(*xmldoc.Node))
			return len(trees) < c.stop
		})
		want := make([]string, len(trees))
		for i, el := range trees {
			want[i] = el.String()
		}
		if n := min(c.stop, 30); len(kept) != n || len(trees) != n || (rawErr == nil) != (c.stop < 30) || (err == nil) != (c.stop < 30) {
			t.Fatalf("%s: %d raw items (%v) and %d trees (%v) delivered, want %d", name, len(kept), rawErr, len(trees), err, n)
		}
		for range 3 { // the pool may hand out any of the Framers it keeps
			n := 0
			if _, err := DecodeRawStream(strings.NewReader(later), func(raw RawItem) bool {
				if !strings.Contains(string(raw), fmt.Sprintf(`<b n="%d">`, n)) {
					t.Fatalf("%s: later raw item %d is %q", name, n, raw)
				}
				n++
				return true
			}); err != nil || n != 30 {
				t.Fatalf("%s: later raw stream: %d items, %v", name, n, err)
			}
			if _, err := DecodeStream(strings.NewReader(later), nil); err != nil {
				t.Fatalf("%s: later stream: %v", name, err)
			}
		}
		for i, raw := range kept {
			if !strings.HasPrefix(raw, fmt.Sprintf(`<node><a n="%d">`, i)) || !strings.HasSuffix(raw, `</a></node>`) {
				t.Fatalf("%s: kept raw item %d is now %q", name, i, raw)
			}
		}
		for i, el := range trees {
			if el.String() != want[i] {
				t.Fatalf("%s: tree %d is now %s, was %s", name, i, el, want[i])
			}
		}
	}
}
