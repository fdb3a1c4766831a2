package xq

import (
	"strings"
	"testing"

	"wsda/internal/xmldoc"
)

// corpusDoc is a richer document exercising nesting, mixed content,
// numeric data and repeated structure.
const corpusDoc = `<library site="geneva">
  <shelf id="s1" floor="1">
    <book isbn="111" year="1999" price="10.50" lang="en">
      <title>Distributed Systems</title>
      <author>Tanenbaum</author><author>van Steen</author>
    </book>
    <book isbn="222" year="2003" price="25.00" lang="en">
      <title>Grid Computing</title>
      <author>Foster</author><author>Kesselman</author>
    </book>
  </shelf>
  <shelf id="s2" floor="2">
    <book isbn="333" year="2002" price="99.99" lang="de">
      <title>Peer-to-Peer Datenbanken</title>
      <author>Hoschek</author>
    </book>
    <book isbn="444" year="1994" price="5.25" lang="en">
      <title>TCP/IP Illustrated</title>
      <author>Stevens</author>
    </book>
  </shelf>
</library>`

// corpus is a single table covering the language surface end to end. Each
// entry is (expression, expected newline-joined string values).
var corpus = []struct{ src, want string }{
	// Arithmetic and precedence.
	{`2 + 3 * 4`, "14"},
	{`(2 + 3) * 4`, "20"},
	{`2 - 3 - 4`, "-5"},
	{`-2 * -3`, "6"},
	{`17 mod 5`, "2"},
	{`17 idiv 5`, "3"},
	{`1 div 8`, "0.125"},
	{`0.1 + 0.2 < 0.4`, "true"},

	// Comparisons: value vs general.
	{`5 eq 5`, "true"},
	{`5 ne 5.0`, "false"},
	{`"b" gt "a"`, "true"},
	{`(1, 2, 3) = 2`, "true"},
	{`(1, 2, 3) != 2`, "true"}, // existential: 1 != 2
	{`(1, 2) = (3, 4)`, "false"},
	{`() = 1`, "false"},

	// Sequences.
	{`count((1, (2, 3), ()))`, "3"},
	{`count(1 to 10)`, "10"},
	{`(1 to 3)[2]`, "2"},
	{`reverse(1 to 3)[1]`, "3"},
	{`subsequence(5 to 10, 2, 2)[2]`, "7"},
	{`string-join(for $i in 1 to 4 return string($i), "")`, "1234"},

	// Paths, axes, predicates.
	{`count(//book)`, "4"},
	{`count(/library/shelf)`, "2"},
	{`count(//book[@lang="en"])`, "3"},
	{`string(//book[@isbn="333"]/title)`, "Peer-to-Peer Datenbanken"},
	{`count(//book[@price > 20])`, "2"},
	{`string((//book)[last()]/title)`, "TCP/IP Illustrated"},
	{`string(//shelf[2]/book[1]/author)`, "Hoschek"},
	{`count(//book/author)`, "6"},
	{`count(//author/parent::book)`, "4"},
	{`string((//author)[1]/ancestor::shelf/@id)`, "s1"},
	{`count(//shelf[@floor="1"]/descendant::author)`, "4"},
	{`string(//book[@isbn="222"]/preceding-sibling::book/@isbn)`, "111"},
	{`string(//book[@isbn="111"]/following-sibling::book/@isbn)`, "222"},
	{`count(//book[author="Foster"])`, "1"},
	{`count(//*)`, "17"},
	{`count(//@isbn)`, "4"},
	{`count(//book[not(@lang="en")])`, "1"},

	// FLWOR.
	{`for $b in //book where $b/@year > 2000 order by $b/@isbn return string($b/@isbn)`, "222\n333"},
	{`for $b in //book order by number($b/@price) return string($b/@isbn)`, "444\n111\n222\n333"},
	{`for $b in //book order by number($b/@price) descending return string($b/@isbn)`, "333\n222\n111\n444"},
	{`for $s in //shelf, $b in $s/book where $b/@lang = "de" return concat($s/@id, "/", $b/@isbn)`, "s2/333"},
	{`let $cheap := //book[@price < 20] return count($cheap)`, "2"},
	{`for $b at $i in //book where $i mod 2 = 0 return string($b/@isbn)`, "222\n444"},
	{`for $y in distinct-values(//book/@year) order by $y return $y`, "1994\n1999\n2002\n2003"},

	// Quantifiers and conditionals.
	{`some $b in //book satisfies $b/@price > 90`, "true"},
	{`every $b in //book satisfies $b/@price > 5`, "true"},
	{`every $b in //book satisfies $b/@lang = "en"`, "false"},
	{`if (count(//book) > 3) then "big" else "small"`, "big"},

	// Aggregates over node data.
	{`sum(for $p in //book/@price return number($p))`, "140.74"},
	{`avg(for $p in //book/@price return number($p)) > 35`, "true"},
	{`min(//book/@year)`, "1994"},
	{`max(for $b in //book return number($b/@price))`, "99.99"},
	{`count(distinct-values(//book/@lang))`, "2"},
	// Distinct by kind and string value: numerics fold (1 and 1.0 are one
	// value), a string and a boolean of the same spelling stay apart; nodes
	// are atomized, first occurrence kept, in order.
	{`distinct-values((1, 1.0, "1", true(), "true", 1.5, "1"))`, "1\n1\ntrue\ntrue\n1.5"},
	{`for $v in distinct-values((1, 1.0, "1", true(), "true")) return $v instance of xs:string`, "false\ntrue\nfalse\ntrue"},
	{`distinct-values(//book/@lang)`, "en\nde"},
	{`distinct-values((//author, "Foster", //book[2]/author))`, "Tanenbaum\nvan Steen\nFoster\nKesselman\nHoschek\nStevens"},

	// String functions on document data.
	{`upper-case(substring(string((//book)[1]/title), 1, 4))`, "DIST"},
	{`string-join(//shelf/@id, "+")`, "s1+s2"},
	{`contains(string((//title)[3]), "Peer")`, "true"},
	{`starts-with(string((//title)[4]), "TCP")`, "true"},
	{`substring-before("isbn:111", ":")`, "isbn"},
	{`substring-after("isbn:111", ":")`, "111"},
	{`normalize-space("  a   b  ")`, "a b"},
	{`translate("2002", "02", "13")`, "3113"},
	{`concat("x", 1, true())`, "x1true"},
	{`string-length(string((//title)[1]))`, "19"},
	{`count(tokenize("a b c d", " "))`, "4"},
	{`replace("1994-2003", "\d+", "Y")`, "Y-Y"},
	{`matches("isbn-444", "^isbn-\d+$")`, "true"},

	// Types.
	{`(//book)[1]/@year castable as xs:integer`, "true"},
	{`number((//book)[1]/@price) instance of xs:double`, "true"},
	{`"99" cast as xs:integer + 1`, "100"},
	{`count(//book[@price castable as xs:double])`, "4"},

	// Set operators.
	{`count(//book[@lang="en"] | //book[@year="2002"])`, "4"},
	{`count(//book[@lang="en"] intersect //book[@price < 20])`, "2"},
	{`count(//book except //shelf[@floor="1"]/book)`, "2"},

	// Constructors.
	{`<x>{count(//book)}</x>`, "<x>4</x>"},
	{`<t a="{//shelf[1]/@id}">{string((//book)[1]/@isbn)}</t>`, `<t a="s1">111</t>`},
	{`element tag { attribute n {1 + 1}, "body" }`, `<tag n="2">body</tag>`},
	{`<list>{for $a in //book[@isbn="222"]/author return <a>{string($a)}</a>}</list>`,
		"<list><a>Foster</a><a>Kesselman</a></list>"},
	{`string(<deep><in>{40 + 2}</in></deep>)`, "42"},
	{`text {"plain"}`, "plain"},

	// Prolog.
	{`declare variable $limit := 20; count(//book[@price < $limit])`, "2"},
	{`declare function local:span($b) { 2026 - number($b/@year) };
	  min(for $b in //book return local:span($b))`, "23"},
	{`declare variable $f := 2;
	  declare function local:scale($x) { $x * $f };
	  local:scale(21)`, "42"},

	// Node identity and document order.
	{`count((//book, //book))`, "8"},               // sequences keep duplicates
	{`count(//book | //book)`, "4"},                // union dedupes
	{`(//book/@isbn)[1] << (//book/@isbn)[2]`, ""}, // << unsupported: see below

	// Upward and sideways from the root element's children: over the
	// shared form of the document these resolve through the evaluation
	// context (shared.go) rather than through Parent links.
	{`string(/library/shelf[1]/../@site)`, "geneva"},
	{`count(/library/shelf/..)`, "1"},
	{`string((//author)[last()]/ancestor::library/@site)`, "geneva"},
	{`count(//book/ancestor-or-self::*)`, "7"},
	{`string(/library/shelf[2]/preceding-sibling::shelf[1]/@id)`, "s1"},
	{`string(/library/shelf[1]/following-sibling::shelf/@floor)`, "2"},
	{`count(/library/shelf[2]/following-sibling::*)`, "0"},
	{`string(root((//title)[3])/library/@site)`, "geneva"},
	{`count(//book/root(.)/library)`, "1"},
	{`count(//book[@lang = /library/shelf[1]/book[1]/@lang])`, "3"},
	{`string-join(for $b in //book[/library/@site = "geneva"] return string($b/@isbn), " ")`, "111 222 333 444"},
	{`string-join(//shelf[2]/book/@isbn | //shelf[1]/@id | /library/@site | //shelf[1]/book[2]/@isbn, " ")`,
		"geneva s1 222 333 444"},
	{`let $s := reverse(/library/shelf) return string-join($s/book/@isbn, " ")`, "111 222 333 444"},
	{`string-join((//shelf[2] | <x i="c"/> | /library)/(@id | @i | @site), " ")`, "c geneva s2"},
	{`(<a/>, //shelf[2]/book[1]/@isbn, <n>{count(//shelf/..)}</n>)`, "<a/>\nisbn=\"333\"\n<n>1</n>"},
	{`count(//book except /library/shelf[2]/book)`, "2"},
}

// shareTopLevel returns a copy of doc in the shared form the registry's
// tuple-set snapshots use: the root element lists parentless subtrees, each
// numbered only within itself.
func shareTopLevel(doc *xmldoc.Node) *xmldoc.Node {
	src := doc.DocumentElement()
	root := xmldoc.NewElement(src.Name)
	for _, a := range src.Attrs {
		root.SetAttr(a.Name, a.Data)
	}
	shared := xmldoc.NewDocument()
	shared.AppendChild(root)
	shared.Renumber()
	for _, ch := range src.Children {
		c := ch.Clone()
		c.Renumber()
		root.Children = append(root.Children, c)
	}
	return shared
}

// TestCorpus runs every entry over the parsed document and over its shared
// form: both must produce the expected text, byte for byte.
func TestCorpus(t *testing.T) {
	d, err := xmldoc.ParseString(corpusDoc)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("plain", func(t *testing.T) { runCorpus(t, d) })
	t.Run("shared", func(t *testing.T) { runCorpus(t, shareTopLevel(d)) })
}

func runCorpus(t *testing.T, d *xmldoc.Node) {
	for _, c := range corpus {
		if strings.Contains(c.src, "<<") {
			// Node-order comparisons are deliberately unsupported; ensure
			// they fail loudly rather than silently misparse.
			if _, err := EvalString(c.src, d); err == nil {
				t.Errorf("%s unexpectedly succeeded", c.src)
			}
			continue
		}
		seq, err := EvalString(c.src, d)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		// The shared predicate engine against the reference evaluation.
		if ref, err := MustCompileGeneral(c.src).EvalDoc(d); err != nil || Serialize(ref) != Serialize(seq) {
			t.Errorf("%s: reference evaluation gave %q (err %v), compiled %q", c.src, Serialize(ref), err, Serialize(seq))
		}
		parts := make([]string, len(seq))
		for i, it := range seq {
			if n, ok := it.(*xmldoc.Node); ok {
				parts[i] = n.String()
			} else {
				parts[i] = StringValue(it)
			}
		}
		if got := strings.Join(parts, "\n"); got != c.want {
			t.Errorf("%s\n  got  %q\n  want %q", c.src, got, c.want)
		}
	}
}
