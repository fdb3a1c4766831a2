package xmldoc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// oracleParse is the encoding/xml token loop Parse was built on before the
// hand-written scanner replaced it, kept as the reference the differential
// and fuzz tests compare against. quirk is non-empty when the input has one
// of the two namespace oddities on which Parse deliberately builds a
// different tree (see knownDivergence).
func oracleParse(src string) (doc *Node, quirk string, err error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	doc = NewDocument()
	cur := doc
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, quirk, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Value == "xmlns" {
					quirk = `a prefix may be bound to the URI "xmlns"`
				}
				if a.Name.Local == "xmlns" && a.Name.Space != "" {
					quirk = "an attribute with a prefix and the local name xmlns"
				}
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.SetAttr(a.Name.Local, a.Value)
			}
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, quirk, fmt.Errorf("xmldoc: parse: unbalanced end element %s", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			s := string(t)
			if cur == doc && strings.TrimSpace(s) == "" {
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			cur.AppendChild(NewComment(string(t)))
		case xml.ProcInst, xml.Directive:
		}
	}
	if cur != doc {
		return nil, quirk, fmt.Errorf("xmldoc: parse: unclosed element %s", cur.Name)
	}
	doc.Renumber()
	return doc, quirk, nil
}
