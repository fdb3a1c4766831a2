package wsda

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// encodeRawCursor hand-crafts a cursor with an arbitrary offset payload,
// for probing the decoder's validation.
func encodeRawCursor(payload string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(pageCursorPrefix + payload))
}

func TestPageCursorRoundTrip(t *testing.T) {
	for _, off := range []int{0, 1, 7, 1 << 20} {
		c := EncodePageCursor(off)
		got, err := DecodePageCursor(c)
		if err != nil {
			t.Fatalf("DecodePageCursor(%q): %v", c, err)
		}
		if got != off {
			t.Errorf("round trip %d -> %q -> %d", off, c, got)
		}
	}
}

func TestPageCursorRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not base64 !!",
		"aGVsbG8",                 // valid base64, wrong prefix
		EncodePageCursor(3) + "x", // corrupted tail
	} {
		if _, err := DecodePageCursor(bad); err == nil {
			t.Errorf("DecodePageCursor(%q) accepted garbage", bad)
		}
	}
	// A negative offset must not survive a hand-crafted cursor.
	if _, err := DecodePageCursor(encodeRawCursor("-4")); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := DecodePageCursor(encodeRawCursor("12junk")); err == nil {
		t.Error("non-numeric offset accepted")
	}
}

// pagedNode builds a server with n sequentially-named tuples so document
// order (link-sorted) is predictable.
func pagedNode(t *testing.T, n int) (*httptest.Server, *LocalNode) {
	t.Helper()
	node := newLocalNode()
	for i := 0; i < n; i++ {
		tp := &tuple.Tuple{
			Link:    fmt.Sprintf("http://paged.example/%03d", i),
			Type:    tuple.TypeService,
			Content: xmldoc.MustParse(fmt.Sprintf(`<service name="s%03d"/>`, i)).DocumentElement().Clone(),
		}
		if _, err := node.Publish(tp, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(node))
	t.Cleanup(srv.Close)
	return srv, node
}

// Paginating through a result set with XQueryPage must deliver exactly the
// items an unpaginated query delivers, in the same order, with no
// duplicates across page boundaries.
func TestXQueryPageWalksWholeResultSet(t *testing.T) {
	srv, _ := pagedNode(t, 10)
	cl := NewClient(srv.URL)
	const q = `//service/@name`

	whole, err := cl.XQuery(q, registry.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, it := range whole {
		want = append(want, xq.Serialize(xq.Sequence{it}))
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		page, err := cl.XQueryPage(q, registry.QueryOptions{}, 3, cursor)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		pages++
		if len(page.Items) > 3 {
			t.Fatalf("page %d has %d items, page-size 3", pages, len(page.Items))
		}
		for _, it := range page.Items {
			got = append(got, xq.Serialize(xq.Sequence{it}))
		}
		if page.Next == "" {
			if !page.Summary.Complete {
				t.Error("final page not marked complete")
			}
			break
		}
		if page.Summary.Complete {
			t.Errorf("page %d has a next cursor but claims complete", pages)
		}
		cursor = page.Next
	}
	if pages != 4 {
		t.Errorf("pages = %d, want 4 (3+3+3+1)", pages)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("paginated walk diverged from buffered result:\ngot  %v\nwant %v", got, want)
	}
}

// An exact multiple of the page size must not mint a cursor pointing at an
// empty trailing page.
func TestXQueryPageExactMultiple(t *testing.T) {
	srv, _ := pagedNode(t, 6)
	cl := NewClient(srv.URL)
	page, err := cl.XQueryPage(`//service/@name`, registry.QueryOptions{}, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 6 {
		t.Fatalf("items = %d, want 6", len(page.Items))
	}
	if page.Next != "" {
		t.Errorf("exact-multiple page minted a next cursor %q", page.Next)
	}
}

// A republish between pages must not derail the cursor: offset cursors are
// positional, so updating an EXISTING link keeps the walk stable (the set
// membership is unchanged). This is the mid-pagination republish anomaly
// the design note promises is survivable.
func TestXQueryPageSurvivesMidPaginationRepublish(t *testing.T) {
	srv, node := pagedNode(t, 6)
	cl := NewClient(srv.URL)
	const q = `//service/@name`

	first, err := cl.XQueryPage(q, registry.QueryOptions{}, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Items) != 3 || first.Next == "" {
		t.Fatalf("first page: %d items, next %q", len(first.Items), first.Next)
	}

	// Republish an already-delivered link with fresh content mid-walk.
	tp := &tuple.Tuple{
		Link:    "http://paged.example/001",
		Type:    tuple.TypeService,
		Content: xmldoc.MustParse(`<service name="s001"/>`).DocumentElement().Clone(),
	}
	if _, err := node.Publish(tp, time.Minute); err != nil {
		t.Fatal(err)
	}

	second, err := cl.XQueryPage(q, registry.QueryOptions{}, 3, first.Next)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, it := range append(first.Items, second.Items...) {
		got = append(got, xq.Serialize(xq.Sequence{it}))
	}
	if len(got) != 6 {
		t.Fatalf("walked %d items, want 6", len(got))
	}
	seen := map[string]bool{}
	for _, s := range got {
		if seen[s] {
			t.Errorf("duplicate item across page boundary: %s", s)
		}
		seen[s] = true
	}
}

// The handler must reject pagination misuse cleanly: bad cursors and a
// cursor without a page size are 400s, not silent full result sets.
func TestHandlerPaginationErrors(t *testing.T) {
	srv, _ := pagedNode(t, 3)
	post := func(params string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+PathXQuery+"?"+params, "text/plain",
			strings.NewReader(`//service`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("page-size=0"); code != http.StatusBadRequest {
		t.Errorf("page-size=0 = %d, want 400", code)
	}
	if code := post("page-size=x"); code != http.StatusBadRequest {
		t.Errorf("page-size=x = %d, want 400", code)
	}
	if code := post("page-size=2&page-cursor=garbage!"); code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", code)
	}
	if code := post("page-cursor=" + EncodePageCursor(2)); code != http.StatusBadRequest {
		t.Errorf("cursor without page-size = %d, want 400", code)
	}
	if code := post("page-size=2"); code != http.StatusOK {
		t.Errorf("valid pagination = %d, want 200", code)
	}
}

// XQueryPage must reject a non-positive page size client-side.
func TestXQueryPageRejectsBadSize(t *testing.T) {
	cl := NewClient("http://unused.example")
	if _, err := cl.XQueryPage(`1`, registry.QueryOptions{}, 0, ""); err == nil {
		t.Error("pageSize 0 accepted")
	}
}

// FuzzDecodePageCursor checks the page-cursor decoder against arbitrary
// client input: it never panics, an accepted cursor names a non-negative
// offset, and re-minting that offset decodes to it again — so a cursor the
// server accepts always means what the server would have minted.
func FuzzDecodePageCursor(f *testing.F) {
	for _, seed := range []string{
		EncodePageCursor(0), EncodePageCursor(7), EncodePageCursor(1 << 40),
		encodeRawCursor("-1"), encodeRawCursor("+3"), encodeRawCursor("007"), encodeRawCursor("9999999999999999999999"),
		encodeRawCursor(""), "", "!!", "d3NkYS5wMjo1", EncodePageCursor(3) + "=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, cursor string) {
		off, err := DecodePageCursor(cursor)
		if err != nil {
			return
		}
		if off < 0 {
			t.Fatalf("%q decoded to negative offset %d", cursor, off)
		}
		if again, err := DecodePageCursor(EncodePageCursor(off)); err != nil || again != off {
			t.Fatalf("%q decoded to %d, whose cursor decodes to %d (err %v)", cursor, off, again, err)
		}
	})
}
