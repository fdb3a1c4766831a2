package pdp

import (
	"strings"
	"testing"
)

// FuzzDecode checks the wire decoder never panics on hostile input — PDP
// endpoints accept bytes from arbitrary peers.
func FuzzDecode(f *testing.F) {
	m := &Message{
		Kind: KindQuery, TxID: "t", From: "a", To: "b",
		Query: "//x", Mode: Metadata, Origin: "o",
	}
	f.Add(m.Encode())
	f.Add(`<pdp kind="result" hits="3" final="true"><results count="1"><atomic type="integer">5</atomic></results></pdp>`)
	f.Add(`<pdp kind="query"><scope radius="-1"/></pdp>`)
	f.Add(`<pdp kind="bogus"/>`)
	f.Add(`<pdp`)
	f.Add(``)
	f.Add(`<pdp kind="query" hop="99999999999999999999"/>`)
	f.Add(legacySpanWire)
	f.Fuzz(func(t *testing.T, wire string) {
		msg, err := Decode(wire)
		if err != nil {
			return
		}
		// A decoded message must re-encode and decode to the same kind.
		again, err := Decode(msg.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v (wire %q)", err, msg.Encode())
		}
		if again.Kind != msg.Kind || again.TxID != msg.TxID {
			t.Fatalf("unstable round trip: %v vs %v", msg.Summary(), again.Summary())
		}
	})
}

// legacySpanWire is a query as an older peer sent it: with the span
// attribute that once carried a trace parent. Decoding ignores it.
const legacySpanWire = `<pdp kind="query" tx="n1#7" from="n0" to="n1" hop="2" span="12345678901234567890" mode="routed"><scope radius="1"/><query>//service</query></pdp>`

func TestLegacySpanAttributeIgnored(t *testing.T) {
	m, err := Decode(legacySpanWire)
	if err != nil {
		t.Fatalf("legacy span attribute rejected: %v", err)
	}
	if m.Kind != KindQuery || m.TxID != "n1#7" || m.Hop != 2 || m.Query != "//service" {
		t.Fatalf("decoded %+v", m)
	}
	if strings.Contains(m.Encode(), "span=") {
		t.Fatalf("re-encoded message carries span: %s", m.Encode())
	}
}
