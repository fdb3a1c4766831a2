package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMountEndpoints(t *testing.T) {
	m := NewMetrics()
	m.Counter("mount_total", "Things.").Add(9)
	fr := NewFlightRecorder(FlightConfig{})
	fr.Record("tx-a", FlightSubmit, "orig", "n1", 0, "routed")
	fr.Record("tx-a", FlightReceived, "n1", "orig", 0, "")

	mux := http.NewServeMux()
	Mount(mux, m)
	MountObservability(mux, fr, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(body, "mount_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	resp, body = get("/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	var fams []FamilySnapshot
	if err := json.Unmarshal([]byte(body), &fams); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if len(fams) != 1 || fams[0].Name != "mount_total" || fams[0].Series[0].Value != 9 {
		t.Fatalf("/debug/vars = %+v", fams)
	}

	resp, body = get("/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", resp.StatusCode)
	}
	var traces []*TraceInfo
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/debug/traces not JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].TraceID != "tx-a" || traces[0].Spans != 2 {
		t.Fatalf("/debug/traces = %+v", traces)
	}

	resp, body = get("/debug/traces?trace=tx-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?trace status = %d", resp.StatusCode)
	}
	var one TraceInfo
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("?trace not JSON: %v\n%s", err, body)
	}
	if one.TraceID != "tx-a" || len(one.Roots) != 1 || one.Roots[0].Name != "updf.submit" {
		t.Fatalf("?trace = %+v", one)
	}

	resp, _ = get("/debug/traces?trace=missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", resp.StatusCode)
	}
}
