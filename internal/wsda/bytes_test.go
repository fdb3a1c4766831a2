package wsda

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// The item forms whose bytes must not move: they are what shards already
// put on the wire, so a forwarded span and a re-rendered item agree.
func TestAppendItemEdgeForms(t *testing.T) {
	doc := xmldoc.MustParse(`<a x="1"><b>t</b></a>`)
	cases := []struct {
		it   xq.Item
		want string
	}{
		{doc.DocumentElement(), `<node><a x="1"><b>t</b></a></node>`},
		{doc, `<node><a x="1"><b>t</b></a></node>`},
		{xmldoc.NewDocument(), `<node/>`},
		{xmldoc.NewText(""), `<node></node>`},
		{xmldoc.NewText(`a<b>&"c`), `<node>a&lt;b&gt;&amp;"c</node>`},
		{xmldoc.NewComment("note"), `<node>note</node>`},
		{xmldoc.NewAttr("k", `v<>&"`), `<node attr-name="k">v&lt;&gt;&amp;"</node>`},
		{xmldoc.NewAttr("k", ""), `<node attr-name="k"></node>`},
		{xmldoc.NewElement("e").SetAttr("q", `<>&"`), `<node><e q="&lt;>&amp;&quot;"/></node>`},
		{"", `<atomic type="string"></atomic>`},
		{`<&>`, `<atomic type="string">&lt;&amp;&gt;</atomic>`},
		{int64(-7), `<atomic type="integer">-7</atomic>`},
		{2.5, `<atomic type="decimal">2.5</atomic>`},
		{true, `<atomic type="boolean">true</atomic>`},
		{RawItem(`<node><x/></node>`), `<node><x/></node>`},
	}
	for _, c := range cases {
		if got := string(AppendItem(nil, c.it)); got != c.want {
			t.Errorf("AppendItem(%#v) = %s, want %s", c.it, got, c.want)
		}
		if got := itemElement(c.it).String(); got != c.want {
			t.Errorf("itemElement(%#v) = %s, want %s", c.it, got, c.want)
		}
	}
}

// randomItem draws an item of any kind, nested elements included.
func randomItem(rng *rand.Rand) xq.Item {
	text := func() string {
		const alphabet = "ab <>&\"'\r\n\té€"
		r := []rune(alphabet)
		n := rng.Intn(6)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(r[rng.Intn(len(r))])
		}
		return sb.String()
	}
	var element func(depth int) *xmldoc.Node
	element = func(depth int) *xmldoc.Node {
		el := xmldoc.NewElement(fmt.Sprintf("e%d", rng.Intn(3)))
		for i := rng.Intn(3); i > 0; i-- {
			el.SetAttr(fmt.Sprintf("a%d", rng.Intn(3)), text())
		}
		for i := rng.Intn(3); i > 0 && depth < 3; i-- {
			if rng.Intn(2) == 0 {
				// Never empty: <e></e> reads back as <e/>, on any path.
				el.AppendChild(xmldoc.NewText("t" + text()))
			} else {
				el.AppendChild(element(depth + 1))
			}
		}
		return el
	}
	switch rng.Intn(8) {
	case 0:
		return text()
	case 1:
		return int64(rng.Intn(1000) - 500)
	case 2:
		return float64(rng.Intn(100)) / 4
	case 3:
		return rng.Intn(2) == 0
	case 4:
		return xmldoc.NewAttr("k", text())
	case 5:
		return xmldoc.NewText(text())
	case 6:
		return RawItem(AppendItem(nil, element(0))) // as a shard would have sent it
	default:
		return element(0)
	}
}

// The tree MarshalSequence builds and the bytes a buffered Delivery writes
// are the same document, for every kind of item; and both delivery shapes
// decode back to items that render to the same bytes again.
func TestMarshalSequenceMatchesBytePath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 300; round++ {
		seq := make(xq.Sequence, rng.Intn(5))
		for i := range seq {
			seq[i] = randomItem(rng)
		}
		rec := httptest.NewRecorder()
		_, _, d := NewEdge(nil, nil, "xquery", true).Open(rec,
			httptest.NewRequest(http.MethodPost, PathXQuery, strings.NewReader("q")))
		for _, it := range seq {
			d.Item(it)
		}
		d.Finish(StreamSummary{Complete: true})
		if tree := MarshalSequence(seq).String(); tree != rec.Body.String() {
			t.Fatalf("MarshalSequence and the buffered Delivery differ:\n%s\n%s", tree, rec.Body.String())
		}

		streamed := httptest.NewRecorder()
		sw := NewStreamWriter(streamed)
		for _, it := range seq {
			if err := sw.WriteItem(it); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(StreamSummary{Complete: true}); err != nil {
			t.Fatal(err)
		}
		for _, body := range []*bytes.Buffer{rec.Body, streamed.Body} {
			i := 0
			sum, err := DecodeStream(iotest.OneByteReader(body), func(it xq.Item) bool {
				if got, want := AppendItem(nil, it), AppendItem(nil, seq[i]); !bytes.Equal(got, want) {
					t.Fatalf("item %d decodes to %s, was %s", i, got, want)
				}
				i++
				return true
			})
			if err != nil || i != len(seq) || sum.Count != len(seq) || !sum.Complete {
				t.Fatalf("decode: %d of %d items, summary %+v, err %v", i, len(seq), sum, err)
			}
		}
	}
}

// A buffered root that outgrows the room kept for it (a long shortfall)
// still leaves as one well-formed document with every item.
func TestBufferedRootLargerThanItsRoom(t *testing.T) {
	for _, shortfall := range []string{"", strings.Repeat("shard-7: connection refused; ", 40)} {
		rec := httptest.NewRecorder()
		_, _, d := NewEdge(nil, nil, "router", false).Open(rec,
			httptest.NewRequest(http.MethodPost, PathXQuery, strings.NewReader("q")))
		seq := xq.Sequence{int64(1), "two", xmldoc.MustParse(`<three/>`).DocumentElement()}
		for _, it := range seq {
			d.Item(it)
		}
		d.Finish(StreamSummary{TxID: "router#1", Complete: shortfall == "", Network: true,
			NodesContacted: 2, NodesResponded: 1, Shortfall: shortfall})
		var got xq.Sequence
		sum, err := DecodeStream(rec.Body, func(it xq.Item) bool { got = append(got, it); return true })
		if err != nil || sum.Shortfall != shortfall || sum.Count != 3 || sum.TxID != "router#1" || sum.Complete != (shortfall == "") {
			t.Fatalf("summary %+v, err %v", sum, err)
		}
		if want := MarshalSequence(seq).String(); MarshalSequence(got).String() != want {
			t.Fatalf("items %s, want %s", MarshalSequence(got), want)
		}
	}
}

// A RawItem is only good until the callback returns: the decoder must not
// need it afterwards, so a consumer may even scribble over it.
func TestDecodeRawStreamSpanLifetime(t *testing.T) {
	var doc bytes.Buffer
	doc.WriteString(`<results streamed="true">`)
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&doc, `<node><s n="%d">%s</s></node>`, i, strings.Repeat("x", i%97))
	}
	doc.WriteString(`<summary count="500" complete="true" elapsed-ms="1"/></results>`)
	n := 0
	sum, err := DecodeRawStream(&chunked{data: doc.Bytes()}, func(raw RawItem) bool {
		want := fmt.Sprintf(`<node><s n="%d">%s</s></node>`, n, strings.Repeat("x", n%97))
		if string(raw) != want {
			t.Fatalf("item %d = %s", n, raw)
		}
		for i := range raw {
			raw[i] = '<'
		}
		n++
		return true
	})
	if err != nil || n != 500 || sum.Count != 500 || !sum.Complete {
		t.Fatalf("decoded %d items, summary %+v, err %v", n, sum, err)
	}
}

// chunked hands its data out in reads of 1..64 bytes.
type chunked struct {
	data []byte
	n    int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.n = c.n%64 + 1
	n := copy(p[:min(c.n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// What the decoder refuses, and that it refuses it only after handing on
// the items that were whole.
func TestDecodeStreamRejects(t *testing.T) {
	good := `<atomic type="string">a</atomic>`
	cases := map[string]string{
		"mid-item":         `<results>` + good + `<node><a>`,
		"mismatched":       `<results>` + good + `<node><a></b></node></results>`,
		"unknown child":    `<results>` + good + `<bogus/></results>`,
		"unknown entity":   `<results>` + good + `<node>&nope;</node></results>`,
		"no end tag":       `<results>` + good + `<summary count="1" complete="true"/>`,
		"bad integer":      `<results>` + good + `<atomic type="integer">x</atomic></results>`,
		"text after root":  `<results>` + good + `</results><results/>`,
		"wrong root":       `<tupleset/>`,
		"nothing":          ``,
		"nesting too deep": `<results>` + good + `<node>` + strings.Repeat("<a>", xmldoc.MaxDepth) + `</node></results>`,
	}
	for name, doc := range cases {
		n := 0
		sum, err := DecodeStream(strings.NewReader(doc), func(xq.Item) bool { n++; return true })
		if err == nil || sum.Complete {
			t.Errorf("%s: err %v, complete %v; want an error and complete=false", name, err, sum.Complete)
		}
		if want := strings.Count(doc, good); n != want {
			t.Errorf("%s: %d items delivered before the fault, want %d", name, n, want)
		}
	}
}

// A publish nested deeper than the parser allows is the client's error.
func TestPublishTooDeepIs400(t *testing.T) {
	srv := httptest.NewServer(Handler(newLocalNode()))
	defer srv.Close()
	body := `<publish ttl-ms="1000"><tuple link="http://x/y" type="service"><content>` +
		strings.Repeat("<a>", xmldoc.MaxDepth) + strings.Repeat("</a>", xmldoc.MaxDepth) + `</content></tuple></publish>`
	resp, err := http.Post(srv.URL+PathPublish, "text/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "nested deeper") {
		t.Fatalf("status %d %q, want 400 naming the nesting limit", resp.StatusCode, msg)
	}
}

// FuzzDecodeStream feeds the decoder arbitrary bytes: it must not panic,
// must frame them the same however they are cut into reads, must only
// yield spans that parse, and must not call a stream complete unless it
// ran to the root's end tag.
func FuzzDecodeStream(f *testing.F) {
	f.Add([]byte(`<results count="2" complete="true"><node><a b="c>d">t</a></node><atomic type="integer">7</atomic></results>`), uint8(3))
	f.Add([]byte(`<results streamed="true"><node attr-name="k">v</node><node/><summary count="2" complete="true" elapsed-ms="3"/></results>`), uint8(1))
	f.Add([]byte(`<results><node><!-- </node> --><![CDATA[</node>]]></node><atomic type="decimal">x</atomic></results>`), uint8(7))
	f.Add([]byte(`<results><node>&nope;</node>`), uint8(2))
	f.Add([]byte("<?xml version=\"1.0\"?>\r\n<results><x:node xmlns:x=\"u\">caf\xc3\xa9</x:node></results>trailing"), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		frame := func(r io.Reader) (spans []string, err error) {
			fr := xmldoc.NewFramer(r)
			for {
				_, span, err := fr.Next()
				if err != nil {
					return spans, err
				}
				if _, perr := xmldoc.ParseBytes(span); perr != nil {
					t.Fatalf("span %q does not parse: %v", span, perr)
				}
				spans = append(spans, string(span))
			}
		}
		whole, werr := frame(bytes.NewReader(data))
		cut, cerr := frame(&chunked{data: data, n: int(step)})
		if strings.Join(whole, "\x00") != strings.Join(cut, "\x00") || (werr == io.EOF) != (cerr == io.EOF) {
			t.Fatalf("framing depends on chunking: %d spans (%v) vs %d spans (%v)", len(whole), werr, len(cut), cerr)
		}

		sum, err := DecodeStream(bytes.NewReader(data), func(xq.Item) bool { return true })
		if err == nil && sum.Complete {
			// Complete means the whole document was there: cut anywhere
			// before the root's end tag, it no longer is.
			end := bytes.LastIndex(data, []byte("</"))
			if end < 0 {
				end = bytes.LastIndex(data, []byte("/>"))
			}
			short, err := DecodeStream(bytes.NewReader(data[:end+1]), nil)
			if err == nil || short.Complete {
				t.Fatalf("truncated stream decoded as complete: %+v", short)
			}
		}
	})
}
