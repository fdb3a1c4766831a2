package xmldoc

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader hands out its data in pieces of random size up to max, or
// of max bytes each when rng is nil.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
	max  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.max
	if c.rng != nil {
		n = 1 + c.rng.Intn(c.max)
	}
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// frames runs a Framer over r and returns the root's serialization, the
// spans (copied) and the final error (nil for a clean io.EOF).
func frames(r io.Reader) (root string, names, spans []string, err error) {
	f := NewFramer(r)
	el, err := f.Root()
	if err != nil {
		return "", nil, nil, err
	}
	for {
		name, span, err := f.Next()
		if err == io.EOF {
			return el.String(), names, spans, nil
		}
		if err != nil {
			return el.String(), names, spans, err
		}
		names = append(names, string(name))
		spans = append(spans, string(span))
	}
}

// Every way of cutting the input into reads must give the same spans: an
// item split across reads, a tag split inside a quoted value holding '>',
// a comment and a CDATA section holding an end tag.
func TestFramerChunkingIndependent(t *testing.T) {
	items := []string{
		`<node><a b="x>y" c='/node>'>t</a></node>`,
		`<node/>`,
		`<x:atomic type="string">&lt;&#x41;&amp;</x:atomic>`,
		`<node><!-- </node> --><![CDATA[</node>]]>]]&gt;<b/></node>`,
		`<node attr-name="k">` + strings.Repeat("long text ", 2000) + `</node>`,
		"<node>café \U0001F600</node>",
		`<summary count="6" complete="true"/>`,
	}
	doc := `<?xml version="1.0"?><!-- lead --><results streamed="true" tx="a&amp;b">` +
		" \n" + strings.Join(items, "\n<?pi?>") + `</results>` + "\n<!-- trail -->"
	wantNames := []string{"node", "node", "atomic", "node", "node", "node", "summary"}

	root, names, spans, err := frames(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if root != `<results streamed="true" tx="a&amp;b"/>` {
		t.Errorf("root = %s", root)
	}
	if strings.Join(names, ",") != strings.Join(wantNames, ",") {
		t.Errorf("names = %v", names)
	}
	if strings.Join(spans, "|") != strings.Join(items, "|") {
		t.Fatalf("spans differ from the items written:\n%q", spans)
	}
	for _, s := range spans {
		if _, err := ParseString(s); err != nil {
			t.Errorf("span %q does not parse: %v", s, err)
		}
	}

	check := func(how string, r io.Reader) {
		t.Helper()
		r2, n2, s2, err := frames(r)
		if err != nil || r2 != root || strings.Join(n2, ",") != strings.Join(names, ",") || strings.Join(s2, "|") != strings.Join(spans, "|") {
			t.Fatalf("%s: framing differs (err %v): %d spans, root %s", how, err, len(s2), r2)
		}
	}
	check("one byte at a time", iotest.OneByteReader(strings.NewReader(doc)))
	check("data with EOF", iotest.DataErrReader(strings.NewReader(doc)))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		check("random chunks", &chunkReader{data: []byte(doc), rng: rng, max: 1 + rng.Intn(300)})
	}
}

// The first span must come out as soon as its last byte is in, not when
// the buffer fills or the stream ends.
func TestFramerYieldsEachItemAsItArrives(t *testing.T) {
	pr, pw := io.Pipe()
	f := NewFramer(pr)
	gotFirst := make(chan struct{})
	go func() {
		_, _ = pw.Write([]byte(`<results><node>1</node>`))
		// The second item is not written until the first has come out: a
		// Framer that waited for more input would wait forever.
		<-gotFirst
		_, _ = pw.Write([]byte(`<node>2</node></results>`))
		pw.Close()
	}()
	if _, span, err := f.Next(); err != nil || string(span) != `<node>1</node>` {
		t.Fatalf("Next = %q, %v", span, err)
	}
	close(gotFirst)
	if _, span, err := f.Next(); err != nil || string(span) != `<node>2</node>` {
		t.Fatalf("Next = %q, %v", span, err)
	}
	if _, _, err := f.Next(); err != io.EOF {
		t.Fatalf("after the last item: %v", err)
	}
}

// Whatever Parse rejects the Framer rejects, after yielding the spans that
// were complete before the fault.
func TestFramerRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, doc string
		spans     int
	}{
		{"truncated mid-item", `<results><node>1</node><node><a>`, 1},
		{"no end tag", `<results><node>1</node>`, 1},
		{"mismatched tags", `<results><node>1</node><node><a></b></node></results>`, 1},
		{"unknown entity", `<results><node>&nope;</node></results>`, 0},
		{"bad character", "<results><node>\x01</node></results>", 0},
		{"second root", `<results/><results/>`, 0},
		{"empty", ``, 0},
		{"text only", `hello`, 0},
		{"too deep", `<results>` + strings.Repeat(`<a>`, MaxDepth), 0},
	}
	for _, c := range cases {
		_, _, spans, err := frames(iotest.OneByteReader(strings.NewReader(c.doc)))
		if err == nil || len(spans) != c.spans {
			t.Errorf("%s: %d spans, err %v; want %d spans and an error", c.name, len(spans), err, c.spans)
		}
		if _, perr := ParseString(c.doc); perr == nil && c.name != "second root" && c.name != "text only" && c.name != "empty" {
			t.Errorf("%s: Parse accepts what the Framer rejects", c.name)
		}
	}
}

// Nesting is bounded: a megabyte of "<a>" is rejected by Parse and by the
// Framer with ErrTooDeep, and the Framer gives up after reading about
// MaxDepth tags, holding next to nothing.
func TestNestingLimit(t *testing.T) {
	deep := strings.Repeat("<a>", 1<<20/3)
	if _, err := ParseString(deep); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("Parse: %v, want ErrTooDeep", err)
	}
	ok := strings.Repeat("<a>", MaxDepth) + strings.Repeat("</a>", MaxDepth)
	if _, err := ParseString(ok); err != nil {
		t.Fatalf("Parse at the limit: %v", err)
	}

	r := strings.NewReader("<r>" + deep)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := frames(r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("Framer: %v, want ErrTooDeep", err)
	}
	if read := r.Size() - int64(r.Len()); read > 16<<10 {
		t.Errorf("Framer read %d bytes before giving up on nesting", read)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("Framer allocated %d bytes on a too-deep document", grew)
	}
}

// repeatReader yields head, then n times the byte fill, then nothing, and
// counts what was read.
type repeatReader struct {
	head string
	fill byte
	n    int
	read int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.head != "" {
		n := copy(p, r.head)
		r.head = r.head[n:]
		r.read += n
		return n, nil
	}
	if r.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.n)
	for i := range p[:n] {
		p[i] = r.fill
	}
	r.n -= n
	r.read += n
	return n, nil
}

// One child element is bounded: a 17 MiB attribute value is rejected with
// ErrItemTooLarge once MaxItemBytes are buffered, not after the rest has
// been read too.
func TestFramerItemLimit(t *testing.T) {
	r := &repeatReader{head: `<results><node>ok</node><node a="`, fill: 'x', n: 17 << 20}
	f := NewFramer(r)
	if _, span, err := f.Next(); err != nil || string(span) != `<node>ok</node>` {
		t.Fatalf("first item: %q, %v", span, err)
	}
	_, _, err := f.Next()
	if !errors.Is(err, ErrItemTooLarge) {
		t.Fatalf("oversize item: %v, want ErrItemTooLarge", err)
	}
	if r.read > MaxItemBytes+64 || cap(f.buf) > MaxItemBytes {
		t.Errorf("read %d bytes into a %d-byte buffer; the limit is %d", r.read, cap(f.buf), MaxItemBytes)
	}

	// Just under the limit is fine, and what surrounds an item does not
	// count towards it.
	big := bytes.Repeat([]byte("y"), MaxItemBytes/2)
	doc := append(append([]byte(`<results><!--`), big...), `--><node>`...)
	doc = append(append(doc, big...), `</node></results>`...)
	_, span, err := NewFramer(bytes.NewReader(doc)).Next()
	if err != nil || len(span) != len(big)+len(`<node></node>`) {
		t.Fatalf("half-limit item after a half-limit comment: %d bytes, %v", len(span), err)
	}
}

// trees runs a Framer's NextTree over r and returns the root's
// serialization, the trees and the final error (nil for a clean io.EOF).
func trees(f *Framer) (root string, els []*Node, err error) {
	el, err := f.Root()
	if err != nil {
		return "", nil, err
	}
	for {
		t, err := f.NextTree()
		if err == io.EOF {
			return el.String(), els, nil
		}
		if err != nil {
			return el.String(), els, err
		}
		els = append(els, t)
	}
}

// sameTree fails unless got is the document element ParseString(span)
// builds — the same serialization, structure and document order of every
// node, attributes included — and is detached.
func sameTree(t *testing.T, span string, got *Node) {
	t.Helper()
	doc, err := ParseString(span)
	if err != nil {
		t.Fatalf("span %q does not parse: %v", span, err)
	}
	want := doc.DocumentElement()
	if got.Parent != nil || got.String() != want.String() || !got.Equal(want) {
		t.Fatalf("tree %q (parent %v), want %q", got.String(), got.Parent, want.String())
	}
	var g, w []int
	got.Walk(func(n *Node) bool { g = append(g, n.Order()); return true })
	want.Walk(func(n *Node) bool { w = append(w, n.Order()); return true })
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("tree %q: document order %v, ParseString's %v", span, g, w)
	}
}

// NextTree builds each child as ParseString builds its span, however the
// input is cut into reads.
func TestFramerTreesMatchParse(t *testing.T) {
	items := []string{
		`<node><a b="x>y" c='/node>'>t</a></node>`,
		`<node/>`,
		`<x:atomic type="string" xmlns:x="u">&lt;&#x41;&amp;</x:atomic>`,
		`<node><!-- </node> --><![CDATA[</node>]]>]]&gt;<b/><?pi x?></node>`,
		`<node attr-name="k">` + strings.Repeat("long text ", 2000) + `</node>`,
		"<node b=\"1\r\n2\" c='it\"s' d=\"a&amp;b\" b = \"again\">café \U0001F600\r</node>",
		`<summary count="6" complete="true"/>`,
	}
	doc := `<?xml version="1.0"?><results streamed="true">` + " \n" + strings.Join(items, "\n<?pi?>") + `</results>`
	for _, read := range []struct {
		how string
		r   io.Reader
	}{
		{"one Read", strings.NewReader(doc)},
		{"a byte per Read", iotest.OneByteReader(strings.NewReader(doc))},
		{"7 bytes per Read", &chunkReader{data: []byte(doc), max: 7}},
		{"random chunks", &chunkReader{data: []byte(doc), rng: rand.New(rand.NewSource(1)), max: 300}},
	} {
		root, els, err := trees(NewFramer(read.r))
		if err != nil || root != `<results streamed="true"/>` || len(els) != len(items) {
			t.Fatalf("%s: root %s, %d trees, err %v", read.how, root, len(els), err)
		}
		for i, el := range els {
			sameTree(t, items[i], el)
		}
	}
}

// The scanner's fast paths take a start tag's name, an attribute and an
// end tag only in their plainest shape and leave anything else to the
// state machine at the same byte, so every error reads as it did before
// them: the texts below are the state machine's alone.
func TestFastPathBailouts(t *testing.T) {
	for _, c := range []struct {
		item, parseErr, frameErr string
		spans                    int
	}{
		{"<node><p:0a/></node>", "xmldoc: parse: invalid local name in \"p:0\" at byte 16", "", 0},
		{"<node><a p:0b=\"1\"/></node>", "xmldoc: parse: invalid local name in \"p:0\" at byte 18", "", 0},
		{"<node><p:a b=\"1\"></p:b></node>", "xmldoc: parse: element <p:a> closed by </p:b> at byte 26", "", 0},
		{"<node><é\xff/></node>", "xmldoc: parse: invalid UTF-8 at byte 18", "", 0},
		{"<node><a à\xff=\"1\"/></node>", "xmldoc: parse: invalid UTF-8 at byte 20", "", 0},
		{"<node><é a=\"1\"></x></node>", "xmldoc: parse: element <é> closed by </x> at byte 25", "", 0},
		{"<node><a b=\"x&nope;\"/></node>", "xmldoc: parse: invalid character entity at byte 27", "", 0},
		{"<node><a b=\"x\ry\x01\"/></node>", "xmldoc: parse: illegal character code U+0001 at byte 24", "", 0},
		{"<node><a b=\"x\r\ny&lt;\"><b c=\"\x02\"/></a></node>", "xmldoc: parse: illegal character code U+0002 at byte 37", "", 0},
		{"<node><a b =\"1\" c = d/></node>", "xmldoc: parse: unquoted or missing attribute value in element at byte 29", "", 0},
		{"<node><a b= \"1\"c/></node>", "xmldoc: parse: attribute name without = in element at byte 25", "", 0},
		{"<node><a b=\"1'/></node>", "xmldoc: parse: unescaped < inside quoted string at byte 25", "", 0},
		{"<node><a b='1\"/></node>", "xmldoc: parse: unescaped < inside quoted string at byte 25", "", 0},
		{"<node><a b=\"café\xff\"/></node>", "xmldoc: parse: invalid UTF-8 at byte 26", "", 0},
		{"<node><a></ab></node>", "xmldoc: parse: element <a> closed by </ab> at byte 18", "", 0},
		{"<node><ab></a></node>", "xmldoc: parse: element <ab> closed by </a> at byte 19", "", 0},
		{"<node><a></a ></node></nodex>", "xmldoc: parse: element <results> closed by </nodex> at byte 30", "", 1},
		{"<node><a></a></node></results><x/>", "xmldoc: parse: unexpected end element </results> at byte 43", "xmldoc: frame: second root element", 1},
	} {
		doc := `<results>` + c.item + `</results>`
		want := cmp.Or(c.frameErr, c.parseErr)
		for _, fast := range []bool{true, false} {
			noFastPaths = !fast
			_, perr := ParseString(doc)
			_, _, spans, ferr := frames(strings.NewReader(doc))
			_, els, terr := trees(NewFramer(iotest.OneByteReader(strings.NewReader(doc))))
			noFastPaths = false
			if fmt.Sprint(perr) != c.parseErr || fmt.Sprint(ferr) != want || fmt.Sprint(terr) != want || len(spans) != c.spans || len(els) != c.spans {
				t.Errorf("%q (fast paths %v):\n  Parse     %v\n  Next      %v (%d spans)\n  NextTree  %v (%d trees)\nwant %s, %d", c.item, fast, perr, ferr, len(spans), terr, len(els), want, c.spans)
			}
		}
	}
}

// Cut anywhere, a stream holding every shape the fast paths take fails as
// the state machine alone fails on it, at the same byte, after the same
// children; read whole or a byte at a time, by Next or by NextTree.
func TestFramerCutAtEveryByte(t *testing.T) {
	doc := `<results a="1" b='2'><node><service name="x" link="http://h/p?q=1"><attr name="k" value=""/>` +
		`<interface type="T"><bind endpoint="e"/></interface>text</service></node><node><x:a p:b="1" c = "&amp;">` +
		"caf\xc3\xa9</x:a ></node><atomic type=\"string\">s</atomic><summary count=\"3\"/></results>"
	outcome := func(cut string, tree, oneByte bool) string {
		var r io.Reader = strings.NewReader(cut)
		if oneByte {
			r = iotest.OneByteReader(r)
		}
		if tree {
			_, els, err := trees(NewFramer(r))
			return fmt.Sprint(len(els), err)
		}
		_, _, spans, err := frames(r)
		return fmt.Sprint(len(spans), err)
	}
	for i := 0; i <= len(doc); i++ {
		cut := doc[:i]
		noFastPaths = true
		want := outcome(cut, false, false)
		noFastPaths = false
		_, perr := ParseString(cut)
		for _, tree := range []bool{false, true} {
			for _, oneByte := range []bool{false, true} {
				if got := outcome(cut, tree, oneByte); got != want {
					t.Fatalf("cut at %d (tree %v, a byte per Read %v): %s, state machine alone %s", i, tree, oneByte, got, want)
				}
			}
		}
		if perr != nil && !strings.HasSuffix(want, perr.Error()) {
			t.Fatalf("cut at %d: framed %s, parsed %v", i, want, perr)
		}
	}
}

// A Framer Reset after an early stop, a malformed stream or an oversize
// child reads the next document as a new Framer does, and keeps nothing
// that refers to what it built before.
func TestFramerResetStartsClean(t *testing.T) {
	good := `<results n="2"><node><a b="1">x</a></node><atomic type="integer">7</atomic></results>`
	wantRoot, wantEls, err := trees(NewFramer(strings.NewReader(good)))
	if err != nil || len(wantEls) != 2 {
		t.Fatalf("good: %d trees, %v", len(wantEls), err)
	}
	f := NewFramer(strings.NewReader(`<results><node><p:x/></node><node/></results>`))
	for _, spoil := range []struct {
		name string
		run  func(f *Framer)
	}{
		{"early stop", func(f *Framer) {
			f.Reset(strings.NewReader(`<results><node><a><b c="1">`))
			if _, err := f.Root(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.NextTree(); err == nil {
				t.Fatal("a cut stream decoded")
			}
		}},
		{"malformed", func(f *Framer) {
			f.Reset(strings.NewReader(`<results><node><a></b></node></results>`))
			if _, _, err := trees(f); err == nil {
				t.Fatal("a malformed stream decoded")
			}
		}},
		{"stopped after one child", func(f *Framer) {
			f.Reset(strings.NewReader(good + good))
			if _, err := f.NextTree(); err != nil {
				t.Fatal(err)
			}
		}},
		{"oversize child", func(f *Framer) {
			f.Reset(&repeatReader{head: `<results><node><deep><er a="`, fill: 'x', n: MaxItemBytes + 1})
			if _, _, err := trees(f); !errors.Is(err, ErrItemTooLarge) {
				t.Fatalf("oversize: %v", err)
			}
		}},
	} {
		spoil.run(f)
		f.Reset(nil)
		if f.r != nil || f.b.nodes != nil || f.b.slots != nil || f.b.open != nil || f.doc.Children != nil || cap(f.buf) > keptBuffer || f.s.depth() != 0 {
			t.Fatalf("after %s, Reset(nil) keeps state", spoil.name)
		}
		f.Reset(strings.NewReader(good))
		root, els, err := trees(f)
		if err != nil || root != wantRoot || len(els) != len(wantEls) {
			t.Fatalf("after %s: root %s, %d trees, %v", spoil.name, root, len(els), err)
		}
		for i, el := range els {
			if el.String() != wantEls[i].String() {
				t.Fatalf("after %s: tree %d is %s, want %s", spoil.name, i, el, wantEls[i])
			}
			sameTree(t, wantEls[i].String(), el)
		}
	}
}
