package shard

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// httpBackendCalls is every call an HTTPBackend makes to its shard.
var httpBackendCalls = map[string]func(ctx context.Context, b *HTTPBackend) error{
	"Publish": func(ctx context.Context, b *HTTPBackend) error {
		_, err := b.Publish(ctx, &tuple.Tuple{Link: "http://a.example.org/x", Type: "service"}, time.Minute)
		return err
	},
	"Unpublish": func(ctx context.Context, b *HTTPBackend) error { return b.Unpublish(ctx, "http://a.example.org/x") },
	"MinQuery": func(ctx context.Context, b *HTTPBackend) error {
		_, err := b.MinQuery(ctx, registry.Filter{Type: "service"})
		return err
	},
	"QueryStream": func(ctx context.Context, b *HTTPBackend) error {
		_, err := b.QueryStream(ctx, QuerySpec{Query: "/tupleset/tuple"}, nil, func(xq.Item) bool { return true })
		return err
	},
	"Healthy": func(ctx context.Context, b *HTTPBackend) error { return b.Healthy(ctx) },
	"Ready":   func(ctx context.Context, b *HTTPBackend) error { return b.Ready(ctx) },
	"Assign": func(ctx context.Context, b *HTTPBackend) error {
		_, err := b.Assign(ctx, Assignment{Index: 0, Total: 2})
		return err
	},
}

// A gated shard's 429 keeps its Retry-After hint through every backend
// call: all of them decode errors in the one place, wsda.Client.Do.
func TestHTTPBackendErrorsCarryRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "tenant quota exceeded (rate)", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, srv.Client())
	for name, call := range httpBackendCalls {
		var he *wsda.HTTPError
		if err := call(context.Background(), b); !errors.As(err, &he) {
			t.Errorf("%s: error %v is not a *wsda.HTTPError", name, err)
		} else if he.StatusCode != http.StatusTooManyRequests || he.RetryAfter != 2*time.Second || he.Body != "tenant quota exceeded (rate)" {
			t.Errorf("%s: got %d %q RetryAfter=%v, want 429 with the shard's text and 2s", name, he.StatusCode, he.Body, he.RetryAfter)
		}
	}
}

// stuckShard takes requests and never answers them: each is announced on
// arrived and held until its context ends, that is, until the caller hangs
// up (net/http watches for that only once the body has been read).
func stuckShard(t *testing.T) (srv *httptest.Server, arrived <-chan struct{}) {
	ch := make(chan struct{}, 1)
	srv = httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		ch <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv, ch
}

// Every backend call rides its caller's ctx: against a shard that never
// answers, cancelling returns the call at once and leaves nothing behind.
func TestHTTPBackendCallsAreCancelledWithTheirContext(t *testing.T) {
	srv, arrived := stuckShard(t)
	hc := &http.Client{Transport: &http.Transport{}}
	b := NewHTTPBackend(srv.URL, hc)
	before := runtime.NumGoroutine()
	for name, call := range httpBackendCalls {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- call(ctx, b) }()
		<-arrived
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: returned %v, want context.Canceled", name, err)
			}
		case <-time.After(100 * time.Millisecond):
			t.Errorf("%s: still waiting on the shard 100ms after its context ended", name)
		}
	}
	expectGoroutines(t, hc, before)
}

// The same through the router: a client that abandons a routed publish
// releases the shard call (and the read barrier it holds) within 100 ms.
func TestRoutedPublishIsCancelledWithItsRequest(t *testing.T) {
	srv, arrived := stuckShard(t)
	hc := &http.Client{Transport: &http.Transport{}}
	rt := NewRouter(Config{Backends: []Backend{NewHTTPBackend(srv.URL, hc)}})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, wsda.PathPublish, strings.NewReader(
		`<publish ttl-ms="60000"><tuple link="http://a.example.org/x" type="service" ctx="child"/></publish>`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		rt.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	<-arrived
	cancel()
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("routed publish still blocked on the shard 100ms after its client left")
	}
	if rec.Code != http.StatusBadGateway {
		t.Errorf("abandoned publish answered %d, want 502", rec.Code)
	}
	expectGoroutines(t, hc, before)
}

// expectGoroutines waits for the goroutine count to fall back to before
// once hc's idle connections are closed.
func expectGoroutines(t *testing.T, hc *http.Client, before int) {
	t.Helper()
	hc.CloseIdleConnections()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%d goroutines before, %d after", before, runtime.NumGoroutine())
}
