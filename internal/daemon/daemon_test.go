package daemon

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// boot builds a Daemon from spec and args the way a main does, with one
// path of its own mounted, and returns the handler Serve would serve.
func boot(t *testing.T, spec Spec, ready func() string, args ...string) (*Daemon, http.Handler) {
	t.Helper()
	d := New(flag.NewFlagSet("test", flag.ContinueOnError), spec)
	d.Parse(append([]string{"-log-level", "error"}, args...))
	d.Mux.HandleFunc("/own", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "own") })
	h, err := d.handler(ready)
	if err != nil {
		t.Fatal(err)
	}
	return d, h
}

func status(h http.Handler, path, token string) int {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code
}

var telemetryPaths = []string{"/metrics", "/debug/vars", "/debug/traces", "/debug/slowlog", "/debug/query/tx1", "/slo"}

func TestStandardSurface(t *testing.T) {
	spec := Spec{Component: "test"}
	for _, tc := range []struct {
		name             string
		args             []string
		telemetry, pprof int
	}{
		{"default", nil, 200, 404},
		{"telemetry off", []string{"-telemetry=false"}, 404, 404},
		{"pprof", []string{"-pprof"}, 200, 200},
	} {
		d, h := boot(t, spec, nil, tc.args...)
		if h != http.Handler(d.Mux) {
			t.Errorf("%s: without -tenants the handler must be the mux itself, not a layer over it", tc.name)
		}
		for _, p := range []string{"/healthz", "/readyz", "/own"} {
			if got := status(h, p, ""); got != 200 {
				t.Errorf("%s: %s = %d, want 200", tc.name, p, got)
			}
		}
		for _, p := range telemetryPaths {
			want := tc.telemetry
			if p == "/debug/query/tx1" && want == 200 {
				want = 404 // mounted, but no such transaction
			}
			if got := status(h, p, ""); got != want {
				t.Errorf("%s: %s = %d, want %d", tc.name, p, got, want)
			}
		}
		if got := status(h, "/debug/pprof/", ""); got != tc.pprof {
			t.Errorf("%s: /debug/pprof/ = %d, want %d", tc.name, got, tc.pprof)
		}
		if (d.Metrics != nil) != (tc.telemetry == 200) || (d.Flight != nil) != (tc.telemetry == 200) {
			t.Errorf("%s: telemetry handles do not follow -telemetry", tc.name)
		}
	}
}

func TestReadyzFollowsReadinessFunc(t *testing.T) {
	why := "replica bootstrapping"
	_, h := boot(t, Spec{Component: "test"}, func() string { return why })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), why) {
		t.Fatalf("/readyz = %d %q, want 503 with the reason", rr.Code, rr.Body.String())
	}
	if got := status(h, "/healthz", ""); got != 200 {
		t.Errorf("/healthz = %d while not ready, want 200 (liveness is not readiness)", got)
	}
	why = ""
	if got := status(h, "/readyz", ""); got != 200 {
		t.Errorf("/readyz = %d once ready, want 200", got)
	}
}

func TestOwnProbesLeavesProbesToTheDaemon(t *testing.T) {
	d, h := boot(t, Spec{Component: "test", OwnProbes: true}, nil)
	d.Mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "degraded", http.StatusServiceUnavailable)
	})
	for _, p := range []string{"/healthz", "/readyz"} {
		if got := status(h, p, ""); got != http.StatusServiceUnavailable {
			t.Errorf("%s = %d, want the daemon's own 503", p, got)
		}
	}
}

func TestTenantGateWrapsTheWholeMux(t *testing.T) {
	tenants := filepath.Join(t.TempDir(), "tenants.conf")
	if err := os.WriteFile(tenants, []byte("alice token=sesame\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, h := boot(t, Spec{Component: "test", TenantEdge: true}, nil, "-tenants", tenants)
	for _, p := range []string{"/healthz", "/readyz", "/metrics", "/slo"} {
		if got := status(h, p, ""); got != 200 {
			t.Errorf("%s = %d without a token, want 200 (probe and scrape paths bypass the gate)", p, got)
		}
	}
	for _, p := range []string{"/own", "/debug/vars", "/debug/slowlog"} {
		if got := status(h, p, ""); got != http.StatusUnauthorized {
			t.Errorf("%s = %d without a token, want 401", p, got)
		}
		if got := status(h, p, "sesame"); got != 200 {
			t.Errorf("%s = %d with a token, want 200", p, got)
		}
	}

	d := New(flag.NewFlagSet("test", flag.ContinueOnError), Spec{Component: "test", TenantEdge: true})
	d.Parse([]string{"-log-level", "error", "-tenants", filepath.Join(t.TempDir(), "missing")})
	if _, err := d.handler(nil); err == nil {
		t.Error("an unreadable -tenants file must fail the setup, not serve ungated")
	}
}

func TestSpecSelectsFlagGroups(t *testing.T) {
	has := func(spec Spec, name string) bool {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		New(fs, spec)
		return fs.Lookup(name) != nil
	}
	for _, tc := range []struct {
		flag string
		spec Spec
	}{
		{"read-timeout", Spec{ReadTimeout: true}},
		{"tenants", Spec{TenantEdge: true}},
		{"admit-max", Spec{TenantEdge: true}},
		{"peer-token", Spec{TenantEdge: true}},
	} {
		if has(Spec{}, tc.flag) || !has(tc.spec, tc.flag) {
			t.Errorf("-%s must be registered by its Spec switch and only by it", tc.flag)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d := New(fs, Spec{Addr: ":7", Name: "n", Usage: map[string]string{"name": "node name"}})
	if fs.Lookup("name").Usage != "node name" || fs.Lookup("addr").DefValue != ":7" || fs.Lookup("name").DefValue != "n" {
		t.Error("Spec defaults and usage wording not applied")
	}
	d.Parse([]string{"-log-level", "error", "-addr", ":9"})
	if got := d.BaseURL(); got != "http://localhost:9" {
		t.Errorf("BaseURL() = %q", got)
	}
}
