package xmldoc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader hands out its data in pieces of random size.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
	max  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+c.rng.Intn(c.max), len(p), len(c.data))
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
