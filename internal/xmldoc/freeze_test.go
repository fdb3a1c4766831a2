package xmldoc

import (
	"strings"
	"testing"
	"unsafe"
)

// TestNodeSize pins a Node at 104 bytes. The parser allocates nodes in
// chunks and every client decodes every answer into them, so a word more
// per node is paid on every item read anywhere.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 104 {
		t.Fatalf("a Node is %d bytes, want at most 104", got)
	}
}

// freezeSeeds add to parseSeeds what a frozen span must reproduce
// escaped: CR, '&', '<' and '>' in text, both quotes in attributes,
// comments, CDATA-derived text and empty elements, also as the root.
var freezeSeeds = []string{
	"<a b=\"&quot;'&lt;&amp;>&#13;\" c='\"'>x&amp;y&lt;z>&#13;\r\n<![CDATA[<&>\"]]><!--c--><e/><f></f></a>",
	`<a><b x="1"/><!----><c>t</c>text<d><e/></d></a>`,
	`<empty/>`,
}

// checkFreeze freezes a clone of src's document element, and of its
// document, and holds every node of each, attributes and text included,
// to what the tree says: AppendTo, String and WriteTo give the bytes an
// unfrozen clone of the node writes, and Order is what Renumber assigns.
func checkFreeze(t *testing.T, src string) {
	t.Helper()
	doc, err := ParseString(src)
	if err != nil {
		return
	}
	if el := doc.DocumentElement(); el != nil {
		checkFrozenTree(t, src, el)
	}
	checkFrozenTree(t, src, doc)
}

func checkFrozenTree(t *testing.T, src string, n *Node) {
	t.Helper()
	frozen, ref := n.Clone(), n.Clone()
	frozen.Freeze()
	ref.Renumber()
	var got, want []*Node
	frozen.Walk(func(m *Node) bool { got = append(got, m); return true })
	ref.Walk(func(m *Node) bool { want = append(want, m); return true })
	if len(got) != len(want) {
		t.Fatalf("%q: the frozen tree has %d nodes, its clone %d", src, len(got), len(want))
	}
	var sb strings.Builder
	for i, m := range got {
		if m.frozen == nil {
			t.Fatalf("%q: node %d (%s %q) is not frozen", src, i, m.Kind, m.Name)
		}
		if m.Order() != want[i].Order() {
			t.Fatalf("%q: node %d (%s %q) has order %d, Renumber assigns %d", src, i, m.Kind, m.Name, m.Order(), want[i].Order())
		}
		walked := string(m.Clone().AppendTo(nil))
		if walked != string(want[i].AppendTo(nil)) {
			t.Fatalf("%q: node %d: a clone of the frozen node writes %q, of the original %q", src, i, walked, want[i].AppendTo(nil))
		}
		sb.Reset()
		if _, err := m.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if copied := string(m.AppendTo([]byte("x"))); copied != "x"+walked || m.String() != walked || sb.String() != walked {
			t.Fatalf("%q: node %d (%s %q): AppendTo %q, String %q, WriteTo %q; walking it writes %q",
				src, i, m.Kind, m.Name, copied, m.String(), sb.String(), walked)
		}
	}
}

// FuzzFreeze holds checkFreeze on parseSeeds, freezeSeeds and whatever
// parses from there.
func FuzzFreeze(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range freezeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkFreeze)
}

// TestFreezeCopiesItsBytes shows what the immutability contract is for:
// a frozen tree answers from its bytes, so a change to it is not seen
// until Renumber unfreezes it, and a tree that lists a frozen subtree
// copies that subtree's bytes.
func TestFreezeCopiesItsBytes(t *testing.T) {
	el := MustParse(`<tuple link="a"><content><service>x</service></content></tuple>`).DocumentElement().Clone()
	el.Freeze()
	const want = `<tuple link="a"><content><service>x</service></content></tuple>`
	svc := el.Children[0].Children[0]
	svc.Children[0].Data = "changed"
	if got := el.String(); got != want {
		t.Fatalf("frozen tree after a mutation writes %q, want its frozen bytes %q", got, want)
	}
	list := NewElement("tupleset")
	list.Children = []*Node{el}
	if got := list.String(); got != "<tupleset>"+want+"</tupleset>" {
		t.Fatalf("a list of a frozen element writes %q", got)
	}
	el.Renumber()
	if got := svc.String(); got != "<service>changed</service>" {
		t.Fatalf("renumbered tree writes %q, want the changed tree", got)
	}
}
