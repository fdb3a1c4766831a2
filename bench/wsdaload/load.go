package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/registry"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// sample is one completed op of the timed window.
type sample struct {
	kind   opKind
	class  class
	ok     bool
	doneNS int64 // completion, ns since the window opened
	durNS  int64 // request sent to answer verified
	// firstNS is request sent to the first onItem callback (streams).
	firstNS int64
}

// countingTransport counts response body bytes, for resp_bytes_per_op.
type countingTransport struct {
	rt    http.RoundTripper
	bytes *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// loadClient is one closed-loop client: one goroutine, one keep-alive
// connection, the next request only after the previous answer.
type loadClient struct {
	wc        *wsda.Client
	transport *http.Transport
	cs        *clientState
	respBytes atomic.Int64
	samples   []sample
	firstErr  error
}

func newLoadClient(edge, token string, cs *clientState) *loadClient {
	c := &loadClient{cs: cs}
	c.transport = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
	}
	c.wc = &wsda.Client{
		BaseURL: edge,
		Token:   token,
		HTTP:    &http.Client{Transport: countingTransport{rt: c.transport, bytes: &c.respBytes}, Timeout: 30 * time.Second},
	}
	return c
}

func (c *loadClient) close() { c.transport.CloseIdleConnections() }

// hasLink reports whether a result item is a <tuple> carrying link.
func hasLink(it xq.Item, link string) bool {
	n, ok := it.(*xmldoc.Node)
	if !ok {
		return false
	}
	got, _ := n.Attr("link")
	return n.LocalName() == "tuple" && got == link
}

func checkSeq(o op, seq xq.Sequence) error {
	if len(seq) != o.want {
		return fmt.Errorf("%d items, want %d", len(seq), o.want)
	}
	if o.link != "" {
		for _, it := range seq {
			if !hasLink(it, o.link) {
				return fmt.Errorf("item does not carry link %s", o.link)
			}
		}
	}
	return nil
}

// do runs one op over HTTP and verifies the answer. first is the time to
// the first streamed item, zero for everything that is not a stream.
func (c *loadClient) do(o op) (first time.Duration, err error) {
	switch o.kind {
	case kQuery:
		seq, err := c.wc.XQuery(o.query, registry.QueryOptions{})
		if err != nil {
			return 0, err
		}
		return 0, checkSeq(o, seq)
	case kStream:
		start := time.Now()
		n, badLink := 0, false
		sum, err := c.wc.XQueryStream(o.query, registry.QueryOptions{}, 0, func(it xq.Item) bool {
			if n == 0 {
				first = time.Since(start)
			}
			n++
			if o.link != "" && !hasLink(it, o.link) {
				badLink = true
			}
			return true
		})
		switch {
		case err != nil:
			return first, err
		case !sum.Complete:
			return first, fmt.Errorf("stream incomplete: %s", sum.Shortfall)
		case sum.Count != n:
			return first, fmt.Errorf("summary counts %d items, %d arrived", sum.Count, n)
		case n != o.want:
			return first, fmt.Errorf("%d items, want %d", n, o.want)
		case badLink:
			return first, fmt.Errorf("item does not carry link %s", o.link)
		}
		return first, nil
	case kRefresh, kPublishNew:
		return 0, publish(c.wc, o.tuple)
	case kUnpublish:
		return 0, c.wc.Unpublish(o.link)
	case kMinQuery:
		ts, err := c.wc.MinQuery(registry.Filter{LinkPrefix: o.link})
		if err != nil {
			return 0, err
		}
		if len(ts) != 1 || ts[0].Link != o.link {
			return 0, fmt.Errorf("minquery by prefix %s: %d tuples", o.link, len(ts))
		}
		return 0, nil
	case kPaged:
		page, err := c.wc.XQueryPage(o.query, registry.QueryOptions{}, 1, "")
		if err != nil {
			return 0, err
		}
		if len(page.Items) != 1 || page.Next == "" {
			return 0, fmt.Errorf("first page: %d items, next cursor %q", len(page.Items), page.Next)
		}
		return 0, nil
	}
	panic("unknown op kind")
}

func publish(wc *wsda.Client, t *tuple.Tuple) error {
	granted, err := wc.Publish(t, pubTTLms*time.Millisecond)
	if err != nil {
		return err
	}
	if granted <= 0 {
		return fmt.Errorf("publish %s: granted TTL %v", t.Link, granted)
	}
	return nil
}

// eachClient runs fn once per client, all at once, and returns the first
// error.
func eachClient(clients []*loadClient, fn func(i int, c *loadClient) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// populate publishes the population over /wsda/publish, the clients
// splitting it between them.
func populate(clients []*loadClient, tuples []*tuple.Tuple) error {
	return eachClient(clients, func(i int, c *loadClient) error {
		for j := i; j < len(tuples); j += len(clients) {
			if err := publish(c.wc, tuples[j]); err != nil {
				return err
			}
		}
		return nil
	})
}

// warmUp runs n ops of the mix, split evenly, unrecorded. It is counted in
// ops, not seconds, so set-up time shows how fast the system got through
// it.
func warmUp(sp spec, ds *dataset, clients []*loadClient, n int) error {
	return eachClient(clients, func(_ int, c *loadClient) error {
		for j := 0; j < n/len(clients); j++ {
			if _, err := c.do(sp.next(ds, c.cs)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
}

// runWindow drives the closed loop for window and returns when every
// client has its last answer. Ops still in flight at the deadline finish
// but fall outside every slice.
func runWindow(sp spec, ds *dataset, clients []*loadClient, t0 time.Time, window time.Duration) {
	_ = eachClient(clients, func(_ int, c *loadClient) error {
		for time.Since(t0) < window {
			o := sp.next(ds, c.cs)
			start := time.Now()
			first, err := c.do(o)
			end := time.Now()
			if err != nil && c.firstErr == nil {
				c.firstErr = fmt.Errorf("%s op %s: %w", classNames[o.class], o.describe(), err)
			}
			c.samples = append(c.samples, sample{
				kind: o.kind, class: o.class, ok: err == nil,
				doneNS: int64(end.Sub(t0)), durNS: int64(end.Sub(start)), firstNS: int64(first),
			})
		}
		return nil // failures are samples here, not a reason to stop
	})
}
