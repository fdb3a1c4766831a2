package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// An upstream-minted tx on /wsda/xquery must land in peerd's flight
// recorder, as it does on registryd: the streamed items are found under
// the same transaction ID on /debug/query/<tx>. Runs the real main — the
// wiring is what is under test — and stops it the way an operator would.
func TestUpstreamTxReachesFlightRecorder(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	os.Args = []string{"peerd", "-addr", addr, "-seed-services", "3", "-log-level", "error"}
	done := make(chan struct{})
	go func() { defer close(done); main() }()
	base := "http://" + addr
	// Serve installs its signal handler before it listens, so once
	// /healthz answers SIGTERM is a graceful stop, not the test's death.
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(end) {
			t.Fatal("peerd never answered /healthz")
		}
	}
	defer func() {
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		<-done
	}()

	resp, err := http.Post(base+"/wsda/xquery?tx=t1&stream=true", "text/xml", strings.NewReader("/tupleset/tuple"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed xquery: status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/debug/query/t1")
	if err != nil {
		t.Fatal(err)
	}
	recording, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(recording), `"stream-item"`) {
		t.Fatalf("/debug/query/t1 = %d, want the stream-item events of tx t1:\n%s", resp.StatusCode, recording)
	}
}
