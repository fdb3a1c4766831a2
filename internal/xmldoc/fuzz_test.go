package xmldoc

import (
	"errors"
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
// serialize -> parse; and a Framer fed the same bytes agrees with it
// (checkFramer).
func checkParse(t *testing.T, src string) {
	t.Helper()
	doc, err := ParseString(src)
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
// the root's child elements, one for one.
func checkFramer(t *testing.T, src string, doc *Node, perr error) {
	t.Helper()
	root, _, spans, ferr := frames(iotest.OneByteReader(strings.NewReader(src)))
	if perr != nil {
		if ferr == nil {
			t.Fatalf("the Framer accepts %q, which Parse rejects: %v", src, perr)
		}
		return
	}
	var roots []*Node
	for _, c := range doc.Children {
		if c.Kind == ElementNode {
			roots = append(roots, c)
		}
	}
	if len(roots) != 1 {
		if ferr == nil {
			t.Fatalf("the Framer accepts %q, which has %d root elements", src, len(roots))
		}
		return
	}
	if ferr != nil {
		t.Fatalf("the Framer rejects %q, which Parse accepts: %v", src, ferr)
	}
	want := roots[0].ChildElements()
	if bare := (&Node{Kind: ElementNode, Name: roots[0].Name, Attrs: roots[0].Attrs}); root != bare.String() || len(spans) != len(want) {
		t.Fatalf("the Framer finds root %s with %d children in %q; Parse finds %s with %d", root, len(spans), src, bare, len(want))
	}
	for i, span := range spans {
		got, err := ParseString(span)
		if err != nil || !got.DocumentElement().Equal(want[i]) {
			t.Fatalf("span %d of %q is %q (%v); Parse finds %q", i, src, span, err, want[i])
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
