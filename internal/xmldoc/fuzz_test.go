package xmldoc

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// parseSeeds are the fuzz corpus seeds, also run as a plain differential
// test. The first seven keep their positions: FuzzParse/seed#0..6 are
// long-standing test names.
var parseSeeds = []string{
	`<a/>`,
	`<a b="c">text<d/><!--x--></a>`,
	`<a>&lt;&amp;&gt;</a>`,
	`<a><b></a></b>`,
	``,
	`<?xml version="1.0"?><a/>`,
	`<a xmlns:x="urn:y"><x:b/></a>`,
	// entities and character references, in text and in attribute values
	`<a b="&quot;&apos;&#65;&#x42;&#x0a;">&#9;&#xD800;&#0065;</a>`,
	`<a>&nope;</a>`, `<a>&#0;</a>`, `<a>&#x110000;</a>`, `<a>&amp</a>`, `<a>&;</a>`, `<a b="&#xFFFE;"/>`,
	// CDATA, also empty, adjacent to text, holding markup and "]]"
	`<a>x<![CDATA[<b>&amp;]]]]>y<![CDATA[]]></a>`, `<a>]]></a>`, `<a b="]]>"/>`, `<![CDATA[ ]]><a/>`, `<a><![CDATA[x]]`,
	// processing instructions and the XML declaration
	`<?xml version="1.0" encoding="UTF-8"?><a><?pi a?b ?></a>`, `<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding='latin1'?><a/>`, `<?a:b:c?><a/>`, `<?xml?><a/>`, `<? x?><a/>`,
	// doctype and other directives: quotes, nesting, embedded comments
	`<!DOCTYPE a [<!ENTITY e "x>y"> <!-- > --> <!ELEMENT a ANY>]><a/>`, `<!><a/>`, `<!">"><a/>`, `<!x<-><a/>`, `<!DOCTYPE a`,
	// namespaces: declarations dropped, prefixes stripped, odd colons
	`<x:a xmlns:x="u" xmlns="v" x:b="1" b="2" xmlns:="w"><:c/><d:/></x:a>`, `<a:b:c/>`, `<a b:c:d="1"/>`, `<x:a></y:a>`, `<x:a></a>`,
	`<a xmlns:p="xmlns" p:b="1" q:xmlns="2"/>`, `<p:0a/>`, `<a p:-b="1"/>`, `<:0/>`,
	// line ends, in text, attribute values and CDATA
	"<a b=\"1\r\n2\r3\">x\r\ny\rz<![CDATA[\r\n]]>\r</a>\r\n", "\r\n<a/>\r\n", `<a b="&#13;">&#13;&#10;</a>`,
	// nested quotes, repeated attributes, spacing inside tags
	`<a b='"' c="'" b = "again"  d="1"e="2" />`, `<a b="<"/>`, `<a b=c/>`, `<a b/>`, `<a b="1" / >`, `< a/>`, `</ a>`, `<a></a >`, `<a></a b>`,
	// comments
	`<!-- --><a><!----><!--x-y--></a><!--z-->`, `<a><!-- -- --></a>`, `<a><!--->`, `<!-x--><a/>`,
	// document level: text around the root, several roots, none
	`text<a/>more`, `<a/><b/>`, `just text`, ` `, "\u00a0<a/>\u2003", `</a>`, `<a>`, `<a><b>`,
	// character validity
	"<a>\x00</a>", "<a>\xff</a>", "<a>\xef\xbf\xbe</a>", "<a>\xef\xbf\xbd</a>", "<a b=\"\x01\"/>", "<!--\xff--><a/>", "<a>\xe2\x82</a>",
	"<\xc3\xa9l\xc3\xa9ment \xc3\xa0=\"1\"/>", "<a\xff/>", "<1a/>", "<a.b-c_d1/>", "<-a/>",
}

// knownDivergence names the deliberate decision that explains a
// disagreement between Parse and the encoding/xml oracle, or returns ""
// when there is none and the disagreement is a bug. oracleErr and newErr
// are the two verdicts (nil = accepted); quirk is oracleParse's.
func knownDivergence(src, quirk string, oracleErr, newErr error) string {
	switch {
	case errors.Is(newErr, ErrTooDeep) && oracleErr == nil:
		return "nesting deeper than MaxDepth is rejected (bounded recursion)"
	case newErr != nil && oracleErr == nil && strings.Contains(newErr.Error(), "invalid local name"):
		// <p:0a/> would become an element named "0a", which serializes to
		// something no parser reads back.
		return "the part after a prefix must be a name of its own"
	case newErr == nil && oracleErr != nil && strings.Contains(oracleErr.Error(), "invalid XML name") && !isASCII(src):
		// encoding/xml holds non-ASCII name characters to the XML 1.0
		// NameChar tables; the scanner takes any well-formed UTF-8 there.
		// The names are opaque to the data model either way.
		return "non-ASCII name characters are not checked against the NameChar tables"
	case newErr == nil && oracleErr == nil && quirk != "":
		// encoding/xml resolves prefixes first, so the old Parse dropped an
		// attribute whose prefix was bound to the literal URI "xmlns" (it
		// looked like a declaration) and kept p:xmlns="..." as an attribute
		// named xmlns (which its own output then turned into one). The
		// scanner goes by spelling: xmlns, xmlns:* and *:xmlns are dropped,
		// nothing else is.
		return quirk
	}
	return ""
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// checkParse holds Parse to its contract on one input: it agrees with the
// oracle on what is a document and on the tree (structure, serialization,
// document order), up to knownDivergence; whatever it accepts survives
// serialize -> parse; the scanner's fast paths change nothing the state
// machine alone finds; and a Framer fed the same bytes agrees with it
// (checkFramer).
func checkParse(t *testing.T, src string) {
	t.Helper()
	doc, err := ParseString(src)
	noFastPaths = true
	slow, serr := ParseString(src)
	noFastPaths = false
	if fmt.Sprint(err) != fmt.Sprint(serr) || err == nil && (doc.String() != slow.String() || !doc.Equal(slow)) {
		t.Fatalf("the scanner's fast paths change %q: %v, state machine alone %v", src, err, serr)
	}
	want, quirk, oerr := oracleParse(src)
	why := knownDivergence(src, quirk, oerr, err)
	switch {
	case why != "":
	case (err == nil) != (oerr == nil):
		t.Fatalf("verdicts differ on %q:\n  parse:  %v\n  oracle: %v", src, err, oerr)
	case err == nil:
		if !doc.Equal(want) || doc.String() != want.String() {
			t.Fatalf("trees differ on %q:\n  parse:  %q\n  oracle: %q", src, doc.String(), want.String())
		}
		var got, exp []int
		doc.Walk(func(n *Node) bool { got = append(got, n.Order()); return true })
		want.Walk(func(n *Node) bool { exp = append(exp, n.Order()); return true })
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("document order differs on %q at node %d: %d, oracle %d", src, i, got[i], exp[i])
			}
		}
	}
	checkFramer(t, src, doc, err)
	if err != nil {
		return
	}
	doc.Walk(func(n *Node) bool {
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %q of %q has parent %v", c.Name+c.Data, n.Name, c.Parent)
			}
		}
		for _, a := range n.Attrs {
			if a.Parent != n {
				t.Fatalf("attribute %q of %q has parent %v", a.Name, n.Name, a.Parent)
			}
		}
		return true
	})
	doc.Normalize()
	out := doc.String()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse of own output failed: %v\noutput: %q", err, out)
	}
	doc2.Normalize()
	if !doc.Equal(doc2) {
		t.Fatalf("round trip not stable:\n%q\nvs\n%q", out, doc2.String())
	}
}

// checkFramer holds a Framer to Parse's verdict (doc, perr) on the same
// input: it fails wherever Parse does; where Parse finds exactly one root
// element it succeeds, its root is that element, and its spans parse to
// the root's child elements, one for one, each of which NextTree builds
// as ParseString builds it, failing where Next fails. The input is read three ways:
// a byte per Read, so every token waits for more; whole in one Read, so a
// child is scanned to its end in one call; and 7 bytes per Read, so a
// child's scan stops and resumes at odd places.
func checkFramer(t *testing.T, src string, doc *Node, perr error) {
	t.Helper()
	var roots []*Node
	if perr == nil {
		for _, c := range doc.Children {
			if c.Kind == ElementNode {
				roots = append(roots, c)
			}
		}
	}
	for _, read := range []struct {
		how string
		r   func() io.Reader
	}{
		{"a byte per Read", func() io.Reader { return iotest.OneByteReader(strings.NewReader(src)) }},
		{"one Read", func() io.Reader { return strings.NewReader(src) }},
		{"7 bytes per Read", func() io.Reader { return &chunkReader{data: []byte(src), max: 7} }},
	} {
		root, _, spans, ferr := frames(read.r())
		troot, els, terr := trees(NewFramer(read.r()))
		if fmt.Sprint(terr) != fmt.Sprint(ferr) || troot != root || len(els) != len(spans) {
			t.Fatalf("NextTree (%s) reads %q as %s with %d trees (%v); Next as %s with %d spans (%v)", read.how, src, troot, len(els), terr, root, len(spans), ferr)
		}
		for i, el := range els {
			sameTree(t, spans[i], el)
		}
		switch {
		case perr != nil && ferr == nil:
			t.Fatalf("the Framer (%s) accepts %q, which Parse rejects: %v", read.how, src, perr)
		case perr != nil:
			continue
		case len(roots) != 1 && ferr == nil:
			t.Fatalf("the Framer (%s) accepts %q, which has %d root elements", read.how, src, len(roots))
		case len(roots) != 1:
			continue
		case ferr != nil:
			t.Fatalf("the Framer (%s) rejects %q, which Parse accepts: %v", read.how, src, ferr)
		}
		want := roots[0].ChildElements()
		if bare := (&Node{Kind: ElementNode, Name: roots[0].Name, Attrs: roots[0].Attrs}); root != bare.String() || len(spans) != len(want) {
			t.Fatalf("the Framer (%s) finds root %s with %d children in %q; Parse finds %s with %d", read.how, root, len(spans), src, bare, len(want))
		}
		for i, span := range spans {
			got, err := ParseString(span)
			if err != nil || !got.DocumentElement().Equal(want[i]) {
				t.Fatalf("span %d of %q (%s) is %q (%v); Parse finds %q", i, src, read.how, span, err, want[i])
			}
		}
	}
}

func TestParseMatchesOracle(t *testing.T) {
	for _, src := range parseSeeds {
		checkParse(t, src)
	}
}

// FuzzParse checks the parser never panics and holds checkParse's
// contract on arbitrary input.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(checkParse)
}
