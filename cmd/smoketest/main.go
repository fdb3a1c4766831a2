// Command smoketest is the CI boot probe. It builds the three daemons and
// walks one endpoint matrix over all of them — registryd, a routerd in
// front of it, and peerd — once as booted by default and once under
// -telemetry=false: /healthz and /readyz answer 200 and the WSDA binding
// keeps serving either way, /metrics, /debug/vars, /slo and /debug/slowlog
// answer 200 only with telemetry on, /debug/pprof/ is a 404 without
// -pprof, and SIGTERM ends each process with exit 0 inside
// -shutdown-grace, the closing "final metrics snapshot" logged. It then
// starts a registryd with seeded services, verifies /slo serves a
// well-formed SLO document, and points a caching SDK client at it to walk
// the cache lifecycle (cold miss, warm hit, invalidation after an
// unpublish once the feed cursor passes the delete). It then boots a
// sharded topology — two registryd
// shards (-shard-of=0/2 and 1/2) behind a routerd — and verifies a routed
// publish→query round-trip lands on both shards, router health aggregates
// to 200, and killing one shard degrades /healthz to 503 with a per-shard
// JSON body. Finally it boots a registryd behind a -tenants gate and walks
// the auth matrix: probe endpoints answer without credentials, /wsda paths
// return 401 without or with a bad token and 200 with a valid one, and a
// rate-limited tenant is throttled with 429 + Retry-After. It exercises
// the actual binaries and the actual HTTP muxes — the wiring a unit test
// can't see — and exits non-zero on any probe failure.
//
//	go run ./cmd/smoketest
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wsda/internal/sdk"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoketest:", err)
		os.Exit(1)
	}
	fmt.Println("smoketest: ok (endpoint matrix x3 daemons, /slo, sdk cache, sharded topology, tenant gate)")
}

func run() error {
	dir, err := os.MkdirTemp("", "wsda-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bins := map[string]string{}
	for _, name := range daemons {
		bins[name] = filepath.Join(dir, name)
		build := exec.Command("go", "build", "-o", bins[name], "./cmd/"+name)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
	}
	for _, telemetry := range []bool{true, false} {
		if err := runMatrix(bins, telemetry); err != nil {
			return fmt.Errorf("endpoint matrix (telemetry=%v): %w", telemetry, err)
		}
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	daemon, err := startDaemon(bins["registryd"], "-addr", addr, "-seed-services", "10")
	if err != nil {
		return err
	}
	defer daemon.stop() //nolint:errcheck
	base := "http://" + addr
	if err := waitHealthy(base+"/healthz", 10*time.Second); err != nil {
		return err
	}

	sloBody, err := get(base + "/slo")
	if err != nil {
		return fmt.Errorf("/slo: %w", err)
	}
	var slo struct {
		Objectives []struct {
			Name string `json:"name"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal([]byte(sloBody), &slo); err != nil {
		return fmt.Errorf("/slo: not JSON: %w (body %q)", err, sloBody)
	}
	if len(slo.Objectives) == 0 {
		return fmt.Errorf("/slo: no objectives in %q", sloBody)
	}
	fmt.Printf("smoketest: /slo -> %d objectives\n", len(slo.Objectives))

	if err := runSDK(base); err != nil {
		return err
	}
	if err := runSharded(bins); err != nil {
		return err
	}
	return runTenanted(dir, bins["registryd"])
}

// daemons are the binaries under test, in boot order (routerd needs its
// registryd shard up).
var daemons = []string{"registryd", "routerd", "peerd"}

// matrix is the endpoint surface every daemon shares, with the status each
// path answers when telemetry is on and under -telemetry=false.
var matrix = []struct {
	path    string
	on, off int
}{
	{"/healthz", 200, 200},
	{"/readyz", 200, 200},
	{"/wsda/presenter", 200, 200},
	{"/metrics", 200, 404},
	{"/debug/vars", 200, 404},
	{"/slo", 200, 404},
	{"/debug/slowlog", 200, 404},
	{"/debug/pprof/", 404, 404}, // no -pprof
}

// runMatrix boots registryd, a routerd over it and peerd, walks the matrix
// over each, and stops them with SIGTERM: each must exit 0 within the
// grace period and, with telemetry on, log the final metrics snapshot.
func runMatrix(bins map[string]string, telemetry bool) error {
	shard, err := freeAddr()
	if err != nil {
		return err
	}
	extra := map[string][]string{"routerd": {"-peers", "http://" + shard}}
	procs := map[string]*proc{}
	for _, name := range daemons {
		addr := shard
		if name != "registryd" {
			if addr, err = freeAddr(); err != nil {
				return err
			}
		}
		args := append([]string{"-addr", addr, fmt.Sprintf("-telemetry=%v", telemetry)}, extra[name]...)
		if procs[name], err = startDaemon(bins[name], args...); err != nil {
			return err
		}
		defer procs[name].stop() //nolint:errcheck
		base := "http://" + addr
		if err := waitHealthy(base+"/healthz", 10*time.Second); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, e := range matrix {
			want := e.off
			if telemetry {
				want = e.on
			}
			if got, _, err := authedGet(base+e.path, ""); err != nil || got != want {
				return fmt.Errorf("%s %s: got %d, %v; want %d", name, e.path, got, err, want)
			}
		}
	}
	for _, name := range daemons {
		if err := procs[name].stop(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if telemetry != strings.Contains(procs[name].log.String(), "final metrics snapshot") {
			return fmt.Errorf("%s: final metrics snapshot logged = %v, want %v", name, !telemetry, telemetry)
		}
	}
	fmt.Printf("smoketest: endpoint matrix telemetry=%v -> %d paths x registryd, routerd, peerd; SIGTERM exits 0\n", telemetry, len(matrix))
	return nil
}

// runSDK points a caching SDK client at the already-running registryd and
// walks the cache lifecycle: a cold read fills from the origin, a repeat
// read hits the cache, and an unpublish at the origin — once the feed
// cursor passes the delete — makes the cached tuple disappear.
func runSDK(base string) error {
	c, err := sdk.New(sdk.Config{Origin: base, FeedWait: 2 * time.Second})
	if err != nil {
		return fmt.Errorf("sdk: %w", err)
	}
	c.Start()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitCursor(ctx, 0); err != nil {
		return fmt.Errorf("sdk never warmed against %s: %w", base, err)
	}

	const link = "http://smoke-sdk.example.org/wsda/presenter"
	origin := wsda.NewClient(base)
	if _, err := origin.Publish(&tuple.Tuple{Link: link, Type: "service", Context: "child"}, time.Hour); err != nil {
		return fmt.Errorf("sdk publish: %w", err)
	}
	gen := c.Cursor() // the feed will carry the publish past this point
	if err := waitCursorPast(ctx, c, gen); err != nil {
		return err
	}
	if _, ok, err := c.Lookup(link); err != nil || !ok {
		return fmt.Errorf("sdk cold lookup: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.Lookup(link); err != nil || !ok {
		return fmt.Errorf("sdk warm lookup: ok=%v err=%v", ok, err)
	}
	st := c.Stats()
	if st.Hits < 1 || st.Misses < 1 {
		return fmt.Errorf("sdk stats after miss+hit: %+v", st)
	}

	gen = c.Cursor()
	if err := origin.Unpublish(link); err != nil {
		return fmt.Errorf("sdk unpublish: %w", err)
	}
	if err := waitCursorPast(ctx, c, gen); err != nil {
		return err
	}
	if _, ok, err := c.Lookup(link); err != nil {
		return fmt.Errorf("sdk lookup after unpublish: %w", err)
	} else if ok {
		return fmt.Errorf("sdk served the dead tuple after the feed cursor passed the delete")
	}
	fmt.Printf("smoketest: sdk cache -> miss, hit, invalidated after unpublish (hits=%d misses=%d invalidations=%d)\n",
		st.Hits, st.Misses, c.Stats().Invalidations)
	return nil
}

// waitCursorPast blocks until the SDK's feed cursor moves strictly past
// gen, so a change published at gen is known to have been applied.
func waitCursorPast(ctx context.Context, c *sdk.Client, gen uint64) error {
	if err := c.WaitCursor(ctx, gen+1); err != nil {
		return fmt.Errorf("sdk feed cursor never passed gen %d: %w", gen, err)
	}
	return nil
}

// runTenanted boots a registryd behind a -tenants gate and checks the
// auth matrix: probes bypass, 401 without/with a bad token, 200 with a
// valid one, and 429 + Retry-After once a tenant's rate quota is spent.
func runTenanted(dir, bin string) error {
	tenants := filepath.Join(dir, "tenants.conf")
	conf := "# smoketest tenants\nalice token=sesame\nslow token=drip rate=1 burst=1\n"
	if err := os.WriteFile(tenants, []byte(conf), 0o600); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	gated, err := startDaemon(bin, "-addr", addr, "-seed-services", "5", "-tenants", tenants)
	if err != nil {
		return err
	}
	defer gated.stop() //nolint:errcheck

	// The liveness poll itself proves /healthz bypasses authentication.
	base := "http://" + addr
	if err := waitHealthy(base+"/healthz", 10*time.Second); err != nil {
		return fmt.Errorf("authed registryd: %w", err)
	}
	for _, p := range []string{"/readyz", "/metrics", "/slo"} {
		if _, err := get(base + p); err != nil {
			return fmt.Errorf("probe %s must bypass the tenant gate: %w", p, err)
		}
	}

	status, hdr, err := authedGet(base+"/wsda/minquery", "")
	if err != nil {
		return fmt.Errorf("unauthenticated minquery: %w", err)
	}
	if status != http.StatusUnauthorized || hdr.Get("WWW-Authenticate") == "" {
		return fmt.Errorf("unauthenticated minquery: got %d (WWW-Authenticate %q), want 401 with challenge",
			status, hdr.Get("WWW-Authenticate"))
	}
	if status, _, err = authedGet(base+"/wsda/minquery", "wrong"); err != nil || status != http.StatusUnauthorized {
		return fmt.Errorf("bad-token minquery: got %d, %v; want 401", status, err)
	}
	if status, _, err = authedGet(base+"/wsda/minquery", "sesame"); err != nil || status != http.StatusOK {
		return fmt.Errorf("authed minquery: got %d, %v; want 200", status, err)
	}

	// The slow tenant holds 1 token: rapid repeats must hit 429 with a
	// Retry-After hint.
	throttled := false
	for i := 0; i < 5 && !throttled; i++ {
		status, hdr, err := authedGet(base+"/wsda/minquery", "drip")
		if err != nil {
			return fmt.Errorf("rate-limited minquery %d: %w", i, err)
		}
		switch status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if hdr.Get("Retry-After") == "" {
				return fmt.Errorf("429 without Retry-After")
			}
			throttled = true
		default:
			return fmt.Errorf("rate-limited minquery %d: unexpected status %d", i, status)
		}
	}
	if !throttled {
		return fmt.Errorf("tenant with rate=1 burst=1 was never throttled")
	}
	fmt.Println("smoketest: tenant gate -> probes bypass, 401/200 matrix, 429 + Retry-After")
	return nil
}

// authedGet fetches url with an optional bearer token and returns the
// status code and response headers.
func authedGet(url, token string) (int, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, resp.Header, nil
}

// proc is one started daemon and everything it logged.
type proc struct {
	cmd  *exec.Cmd
	log  bytes.Buffer
	done bool
}

// startDaemon launches bin with args, its output copied to stderr and
// kept for inspection.
func startDaemon(bin string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...)}
	out := io.MultiWriter(os.Stderr, &p.log)
	p.cmd.Stdout, p.cmd.Stderr = out, out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return p, nil
}

// stop SIGTERMs the daemon and requires a clean exit inside the default
// -shutdown-grace (5s); a daemon that lingers is killed and reported.
// Repeated calls are no-ops.
func (p *proc) stop() error {
	if p.done {
		return nil
	}
	p.done = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- p.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("exit after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(6 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("still running 6s after SIGTERM (-shutdown-grace is 5s); killed")
	}
}

// runSharded boots the sharded topology: two registryd shards behind a
// routerd, a routed publish→query round-trip, aggregate health, and the
// degraded 503 body after one shard dies.
func runSharded(bins map[string]string) error {
	shard0, err := freeAddr()
	if err != nil {
		return err
	}
	shard1, err := freeAddr()
	if err != nil {
		return err
	}
	routerAddr, err := freeAddr()
	if err != nil {
		return err
	}

	s0, err := startDaemon(bins["registryd"], "-addr", shard0, "-name", "shard0", "-shard-of", "0/2")
	if err != nil {
		return err
	}
	defer s0.stop() //nolint:errcheck
	s1, err := startDaemon(bins["registryd"], "-addr", shard1, "-name", "shard1", "-shard-of", "1/2")
	if err != nil {
		return err
	}
	defer s1.stop() //nolint:errcheck
	peers := "http://" + shard0 + ",http://" + shard1
	rtr, err := startDaemon(bins["routerd"], "-addr", routerAddr, "-peers", peers)
	if err != nil {
		return err
	}
	defer rtr.stop() //nolint:errcheck

	router := "http://" + routerAddr
	if err := waitHealthy(router+"/healthz", 10*time.Second); err != nil {
		return fmt.Errorf("router never aggregated healthy shards: %w", err)
	}
	if _, err := get(router + "/readyz"); err != nil {
		return fmt.Errorf("router /readyz: %w", err)
	}

	// Routed publish→query round-trip: enough links that both shards own
	// some, so the scatter-gather must actually merge.
	const links = 16
	for i := 0; i < links; i++ {
		body := fmt.Sprintf(`<publish ttl-ms="3600000"><tuple link="http://smoke-%02d.example.org/wsda/presenter" type="service" ctx="child"/></publish>`, i)
		resp, err := http.Post(router+"/wsda/publish", "text/xml", strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("routed publish: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("routed publish %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(router+"/wsda/xquery?stream=true", "text/xml",
		strings.NewReader(`/tupleset/tuple[@type="service"]`))
	if err != nil {
		return fmt.Errorf("routed xquery: %w", err)
	}
	qbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("routed xquery: status %d: %s", resp.StatusCode, qbody)
	}
	got := strings.Count(string(qbody), "<tuple ")
	if got != links {
		return fmt.Errorf("routed xquery returned %d tuples, want %d: %s", got, links, qbody)
	}
	if !strings.Contains(string(qbody), `complete="true"`) {
		return fmt.Errorf("routed xquery summary not complete: %s", qbody)
	}
	route := resp.Header.Get("X-Wsda-Route")
	fmt.Printf("smoketest: sharded round-trip -> %d tuples via %q\n", got, route)

	// Kill one shard: aggregate health must degrade to 503 and name the
	// dead shard in the per-shard JSON body.
	if err := s1.stop(); err != nil {
		return fmt.Errorf("shard1: %w", err)
	}
	var degraded struct {
		Status string `json:"status"`
		Shards []struct {
			Shard  string `json:"shard"`
			Status string `json:"status"`
		} `json:"shards"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(router + "/healthz")
		if err != nil {
			return fmt.Errorf("router /healthz after shard kill: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if err := json.Unmarshal(body, &degraded); err != nil {
				return fmt.Errorf("degraded /healthz body not JSON: %w (%s)", err, body)
			}
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router /healthz stayed %d after shard kill", resp.StatusCode)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if degraded.Status != "degraded" {
		return fmt.Errorf("degraded /healthz status = %q", degraded.Status)
	}
	named := false
	for _, s := range degraded.Shards {
		if strings.Contains(s.Shard, shard1) && s.Status != "ok" {
			named = true
		}
	}
	if !named {
		return fmt.Errorf("degraded /healthz body does not name the dead shard %s: %+v", shard1, degraded)
	}
	fmt.Printf("smoketest: shard kill -> /healthz degraded, %d shard rows\n", len(degraded.Shards))
	return nil
}

// freeAddr grabs a free localhost port from the kernel and releases it
// for the daemon to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls the liveness endpoint until it answers 200 or the
// deadline passes.
func waitHealthy(url string, deadline time.Duration) error {
	var last error
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		last = err
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy: %v", url, last)
}

// get fetches a URL and requires a 200, returning the body.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return string(body), nil
}
