package xmldoc_test

import (
	"net/http/httptest"
	"testing"

	"wsda/internal/workload"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
)

// BenchmarkScanTokens scans the stream BenchmarkDecodeRawStream frames (334
// services, written by a StreamWriter) one token per tag and attribute,
// building nothing: the floor under framing that hands back every token,
// which DecodeRawStream's skim stays below.
func BenchmarkScanTokens(b *testing.B) {
	const items = 334
	gen := workload.NewGen(1)
	rec := httptest.NewRecorder()
	sw := wsda.NewStreamWriter(rec)
	for i := 0; i < items; i++ {
		if err := sw.WriteItem(gen.Service(i).ToXML()); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Close(wsda.StreamSummary{Complete: true}); err != nil {
		b.Fatal(err)
	}
	stream := rec.Body.Bytes()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := xmldoc.ScanTokens(stream); err != nil || n < items {
			b.Fatalf("%d tokens, %v", n, err)
		}
	}
}
