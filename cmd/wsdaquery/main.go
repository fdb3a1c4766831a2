// Command wsdaquery is the client CLI for WSDA nodes (registryd, peerd).
//
// Subcommands:
//
//	wsdaquery describe  -node http://localhost:8080
//	wsdaquery minquery  -node http://localhost:8080 [-type service] [-ctx c] [-prefix http://cern.ch/]
//	wsdaquery xquery    -node http://localhost:8080 'count(/tupleset/tuple)'
//	wsdaquery netquery  -node http://localhost:9001 [-mode routed] [-radius -1] [-pipeline] 'for $s in //service return $s'
//	wsdaquery publish   -node http://localhost:8080 -link URL -type service [-ttl 5m] [-content file.xml]
//	wsdaquery unpublish -node http://localhost:8080 -link URL
//	wsdaquery mint      -tenant alice -key HEX [-ttl 24h]
//
// Against a node running behind -tenants, every subcommand takes -token
// to authenticate as a tenant (sent as "Authorization: Bearer ..."):
//
//	wsdaquery minquery -token sesame -node http://localhost:8080 -type service
//
// mint signs an expiring HMAC token offline from a tenant's key= secret
// (hex, as it appears in the tenants file) and prints it — no server
// round-trip, so tokens can be issued from wherever the tenants file is
// managed.
//
// xquery takes -explain to print the node's chosen query plan (from the
// X-Wsda-Plan response header: index pushdown, store scan, or the
// interpreted view path) before the results.
//
// xquery and netquery take -stream to decode the response incrementally and
// print items the moment they arrive (with netquery -pipeline the first item
// can print while remote nodes are still evaluating), and -max-results N to
// stop after N items — a streamed netquery then closes the transaction
// network-wide, so no node keeps working for answers nobody will read.
//
// xquery also takes -page-size N to paginate: the node returns at most N
// items plus an opaque continuation cursor in the stream summary, and
// wsdaquery follows cursors until the result set is exhausted — bounded
// memory at both ends no matter how large the result. minquery and
// buffered xquery take -cached to route reads through the feed-invalidated
// SDK cache (one-shot invocations mostly exercise the pass-through path;
// the flag exists to smoke the SDK against a live node).
//
// -node accepts a comma-separated failover list and -retry N repeats the
// whole pass with exponential backoff (honoring a throttling node's
// Retry-After hint, capped at 15s), so queries ride out a primary
// restart by failing over to a read replica:
//
//	wsdaquery minquery -retry 3 -node http://primary:8080,http://replica:8081 -type service
//
// Against a sharded router (routerd), a query that loses a shard mid-flight
// still succeeds: the delivered items print, the exit status is 0, and a
// warning names the missing shard (the summary's shortfall). Once any item
// has been printed, a later stream failure is terminal rather than failed
// over — re-running the query elsewhere would duplicate delivered output.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"wsda/internal/registry"
	"wsda/internal/resilience"
	"wsda/internal/sdk"
	"wsda/internal/tenant"
	"wsda/internal/tuple"
	"wsda/internal/wlog"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wsdaquery <describe|minquery|xquery|netquery|publish|unpublish|mint> [flags] [query]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "mint" {
		runMint(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	node := fs.String("node", "http://localhost:8080", "node base URL, or a comma-separated failover list (primary,replica,...)")
	retry := fs.Int("retry", 0, "extra passes over the node list after a failure, with exponential backoff")
	typ := fs.String("type", "", "tuple type filter / published tuple type")
	ctx := fs.String("ctx", "", "context filter / published tuple context")
	prefix := fs.String("prefix", "", "link prefix filter")
	link := fs.String("link", "", "content link (publish/unpublish)")
	ttl := fs.Duration("ttl", 5*time.Minute, "requested lifetime (publish)")
	contentFile := fs.String("content", "", "XML content file (publish)")
	maxAge := fs.Duration("maxage", 0, "content freshness bound (xquery)")
	pull := fs.Bool("pull-missing", false, "pull missing content (xquery)")
	stream := fs.Bool("stream", false, "decode the response incrementally, printing items as they arrive (xquery/netquery)")
	explain := fs.Bool("explain", false, "print the node's chosen query plan from the X-Wsda-Plan header (xquery)")
	maxResults := fs.Int("max-results", 0, "stop after N items; 0 = unlimited (xquery/netquery)")
	pageSize := fs.Int("page-size", 0, "paginate xquery: fetch N items per page, following the continuation cursor; 0 = off")
	cached := fs.Bool("cached", false, "route reads through the feed-invalidated SDK cache (minquery/xquery)")
	mode := fs.String("mode", "routed", "network query response mode: routed|direct|metadata|referral (netquery)")
	radius := fs.Int("radius", -1, "network query horizon in hops; -1 = unbounded (netquery)")
	pipeline := fs.Bool("pipeline", false, "relay partial results while the query is still spreading (netquery)")
	netTimeout := fs.Duration("net-timeout", 0, "network query abort deadline; 0 = server default (netquery)")
	token := fs.String("token", "", "bearer token for nodes behind -tenants (static, or minted with `wsdaquery mint`)")
	logLevel := fs.String("log-level", "info", "diagnostic log level (debug|info|warn|error)")
	logFormat := fs.String("log-format", "text", "diagnostic log format: text (human-readable) or json")
	if err := fs.Parse(os.Args[2:]); err != nil {
		usage()
	}
	logger, err := wlog.New(wlog.Config{Level: *logLevel, Format: *logFormat})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsdaquery:", err)
		os.Exit(2)
	}
	logger = wlog.WithComponent(logger, "wsdaquery")
	var clients []*wsda.Client
	for _, u := range strings.Split(*node, ",") {
		if u = strings.TrimSpace(u); u != "" {
			c := wsda.NewClient(u)
			c.Token = *token
			clients = append(clients, c)
		}
	}
	if len(clients) == 0 {
		usage()
	}

	fail := func(err error) {
		logger.Error("command failed", "err", err)
		os.Exit(1)
	}

	attempt := func(do func(c *wsda.Client) error) error {
		return runAttempts(clients, *retry, time.Sleep, logger, do)
	}

	var sdkc *sdk.Client
	if *cached {
		c, err := sdk.New(sdk.Config{
			Origin: clients[0].BaseURL, Token: *token,
			Log: wlog.WithComponent(logger, "sdk"),
		})
		if err != nil {
			fail(err)
		}
		c.Start()
		defer c.Close()
		// Give the feed tail one round-trip to arm; a cold cache still
		// works, it just passes every read through.
		warmCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := c.WaitCursor(warmCtx, 0); err != nil {
			logger.Warn("sdk cache did not warm, reads pass through", "err", err)
		}
		cancel()
		sdkc = c
	}

	run(cmd, fs, attempt, fail, logger, sdkc,
		link, typ, ctx, prefix, ttl, contentFile, maxAge, pull,
		streamOpts{stream: *stream, maxResults: *maxResults, mode: *mode,
			radius: *radius, pipeline: *pipeline, netTimeout: *netTimeout,
			explain: *explain, pageSize: *pageSize})
}

// runMint implements the offline `wsdaquery mint` subcommand: sign an
// expiring tenant token from the HMAC secret in the tenants file.
func runMint(args []string) {
	fs := flag.NewFlagSet("mint", flag.ExitOnError)
	name := fs.String("tenant", "", "tenant name to mint for (required)")
	keyHex := fs.String("key", "", "tenant HMAC secret, hex-encoded as in the tenants file (required)")
	ttl := fs.Duration("ttl", 24*time.Hour, "token lifetime")
	if err := fs.Parse(args); err != nil {
		usage()
	}
	die := func(msg string) {
		fmt.Fprintln(os.Stderr, "wsdaquery mint:", msg)
		os.Exit(2)
	}
	if *name == "" || *keyHex == "" {
		die("-tenant and -key are required")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil || len(key) == 0 {
		die("-key must be non-empty hex")
	}
	fmt.Println(tenant.Mint(*name, key, time.Now().Add(*ttl)))
}

// streamOpts bundles the delivery and network-query flags so run's
// signature stays manageable.
type streamOpts struct {
	stream     bool
	maxResults int
	mode       string
	radius     int
	pipeline   bool
	netTimeout time.Duration
	explain    bool
	pageSize   int
}

// retryAfterCap bounds how long a server's Retry-After hint can stall a
// retry pass: an interactive CLI should not silently sleep for minutes
// because a throttling proxy said so.
const retryAfterCap = 15 * time.Second

// runAttempts runs do against each endpoint in order until one succeeds,
// then repeats the whole pass up to `retries` times with exponential
// backoff between passes. Queries fail over to replicas transparently;
// mutations only ever reach the first node that accepts them. A pass in
// which every failure was a definitive client-side rejection (a 4xx other
// than 408/429) is not repeated: resending a malformed query cannot fix it.
// When a throttling node sent Retry-After (the 429 path), the largest hint
// seen in the pass replaces the computed backoff — capped at retryAfterCap,
// and the exponential schedule still advances underneath for the next pass.
// A failure AFTER result items already reached stdout is terminal
// immediately — neither failover nor another pass — because re-running the
// stream against another endpoint would duplicate the delivered items.
func runAttempts(clients []*wsda.Client, retries int, sleep func(time.Duration), logger *slog.Logger, do func(c *wsda.Client) error) error {
	backoff := resilience.NewBackoff(250*time.Millisecond, 5*time.Second)
	var err error
	for pass := 0; ; pass++ {
		anyRetryable := false
		var hint time.Duration
		for i, c := range clients {
			if err = do(c); err == nil {
				return nil
			}
			var pd *partialDeliveryError
			if errors.As(err, &pd) {
				logger.Warn("stream failed after partial delivery, not retrying",
					"delivered", pd.items, "err", pd.err)
				return err
			}
			if retryableError(err) {
				anyRetryable = true
			}
			if h := retryAfterHint(err); h > hint {
				hint = h
			}
			if i < len(clients)-1 {
				logger.Warn("endpoint failed, failing over", "endpoint", i+1, "err", err)
			}
		}
		if pass >= retries {
			return err
		}
		if !anyRetryable {
			logger.Warn("not retrying, the request was rejected", "err", err)
			return err
		}
		wait := backoff.Next()
		if hint > 0 {
			wait = min(hint, retryAfterCap)
		}
		logger.Warn("all endpoints failed, retrying", "err", err, "backoff", wait, "server-hinted", hint > 0)
		sleep(wait)
	}
}

// retryAfterHint extracts the server's Retry-After delay from err — 0 when
// the failure carried none.
func retryAfterHint(err error) time.Duration {
	var he *wsda.HTTPError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}

// retryableError decides whether a failed attempt justifies another pass:
// network errors might heal, HTTP errors defer to their status code.
func retryableError(err error) bool {
	var he *wsda.HTTPError
	if errors.As(err, &he) {
		return he.Retryable()
	}
	return true
}

// partialDeliveryError marks a stream failure that arrived after result
// items were already printed. It is terminal: retrying the query against
// any endpoint would print those items a second time.
type partialDeliveryError struct {
	err   error
	items int
}

func (e *partialDeliveryError) Error() string {
	return fmt.Sprintf("stream failed after %d items were delivered: %v", e.items, e.err)
}

func (e *partialDeliveryError) Unwrap() error { return e.err }

// run dispatches one subcommand, wrapping every remote call in attempt.
// Result rows go to stdout; per-query accounting metadata goes to the
// structured logger on stderr so pipes stay clean. sdkc, when non-nil,
// routes minquery and buffered xquery through the caching SDK client
// (-cached) instead of the failover list.
func run(cmd string, fs *flag.FlagSet,
	attempt func(do func(c *wsda.Client) error) error, fail func(error),
	logger *slog.Logger, sdkc *sdk.Client,
	link, typ, ctx, prefix *string, ttl *time.Duration, contentFile *string,
	maxAge *time.Duration, pull *bool, so streamOpts) {

	// printItem writes one result item to stdout the moment it arrives and
	// enforces the client-side -max-results bound for buffered responses.
	printed := 0
	printItem := func(it xq.Item) bool {
		fmt.Println(xq.Serialize(xq.Sequence{it}))
		printed++
		return so.maxResults == 0 || printed < so.maxResults
	}

	switch cmd {
	case "describe":
		var desc *wsda.Service
		if err := attempt(func(c *wsda.Client) (err error) {
			desc, err = c.GetServiceDescription()
			return err
		}); err != nil {
			fail(err)
		}
		fmt.Println(desc.ToXML().Indent())
	case "minquery":
		f := registry.Filter{Type: *typ, Context: *ctx, LinkPrefix: *prefix}
		var tuples []*tuple.Tuple
		if sdkc != nil {
			var err error
			if tuples, err = sdkc.MinQuery(f); err != nil {
				fail(err)
			}
		} else if err := attempt(func(c *wsda.Client) (err error) {
			tuples, err = c.MinQuery(f)
			return err
		}); err != nil {
			fail(err)
		}
		for _, t := range tuples {
			fmt.Println(t.ToXML().String())
		}
		if sdkc != nil {
			st := sdkc.Stats()
			logger.Info("minquery done", "tuples", len(tuples),
				"cache-hits", st.Hits, "cache-misses", st.Misses, "cache-warm", st.Warm)
		} else {
			logger.Info("minquery done", "tuples", len(tuples))
		}
	case "xquery":
		if fs.NArg() != 1 {
			fail(fmt.Errorf("xquery needs exactly one query argument"))
		}
		opts := registry.QueryOptions{
			Filter:    registry.Filter{Type: *typ, Context: *ctx, LinkPrefix: *prefix},
			Freshness: registry.Freshness{MaxAge: *maxAge, PullMissing: *pull},
		}
		var plan registry.PlanInfo
		if so.explain {
			opts.Explain = &plan
		}
		if so.pageSize > 0 {
			// Paginated delivery: follow the continuation cursor page by
			// page. Each page is all-or-nothing on the wire, so a retried
			// page cannot duplicate printed items — the cursor lives outside
			// the attempt closure and only advances after a page lands.
			cursor := ""
			pages := 0
			for {
				var page *wsda.Page
				if err := attempt(func(c *wsda.Client) (err error) {
					page, err = c.XQueryPage(fs.Arg(0), opts, so.pageSize, cursor)
					return err
				}); err != nil {
					fail(err)
				}
				pages++
				if so.explain && pages == 1 {
					fmt.Println("plan:", plan)
				}
				for _, it := range page.Items {
					fmt.Println(xq.Serialize(xq.Sequence{it}))
					printed++
				}
				if cursor = page.Next; cursor == "" {
					break
				}
			}
			logger.Info("xquery paginated done", "items", printed, "pages", pages)
			return
		}
		if so.stream || so.maxResults > 0 {
			var sum *wsda.StreamSummary
			if err := attempt(func(c *wsda.Client) (err error) {
				before := printed
				sum, err = c.XQueryStream(fs.Arg(0), opts, so.maxResults, printItem)
				if err != nil && printed > before {
					err = &partialDeliveryError{err: err, items: printed - before}
				}
				return err
			}); err != nil {
				fail(err)
			}
			if so.explain {
				// Streamed responses surface the plan via the summary; an
				// absent header means the node fell back to the view path.
				fmt.Println("plan:", registry.ParsePlanInfo(sum.Plan))
			}
			if !sum.Complete {
				// A sharded/replicated backend delivered what it had; the
				// result is usable but some partition never answered.
				logger.Warn("xquery stream delivered PARTIAL results",
					"items", sum.Count, "shortfall", sum.Shortfall,
					"nodes-contacted", sum.NodesContacted, "nodes-responded", sum.NodesResponded)
			} else {
				logger.Info("xquery stream done", "items", sum.Count, "complete", sum.Complete)
			}
			return
		}
		var seq xq.Sequence
		if sdkc != nil {
			var err error
			if seq, err = sdkc.XQuery(fs.Arg(0), opts); err != nil {
				fail(err)
			}
		} else if err := attempt(func(c *wsda.Client) (err error) {
			seq, err = c.XQuery(fs.Arg(0), opts)
			return err
		}); err != nil {
			fail(err)
		}
		if so.explain {
			fmt.Println("plan:", plan)
		}
		fmt.Println(xq.Serialize(seq))
		if sdkc != nil {
			st := sdkc.Stats()
			logger.Info("xquery done", "items", len(seq),
				"cache-hits", st.Hits, "cache-misses", st.Misses, "cache-warm", st.Warm)
		} else {
			logger.Info("xquery done", "items", len(seq))
		}
	case "netquery":
		if fs.NArg() != 1 {
			fail(fmt.Errorf("netquery needs exactly one query argument"))
		}
		params := url.Values{}
		params.Set("mode", so.mode)
		params.Set("radius", strconv.Itoa(so.radius))
		if so.pipeline {
			params.Set("pipeline", "true")
		}
		if so.netTimeout > 0 {
			params.Set("timeout-ms", strconv.FormatInt(so.netTimeout.Milliseconds(), 10))
		}
		if so.stream {
			params.Set("stream", "true")
		}
		if so.maxResults > 0 {
			params.Set("max-results", strconv.Itoa(so.maxResults))
		}
		var sum *wsda.StreamSummary
		if err := attempt(func(c *wsda.Client) (err error) {
			before := printed
			sum, err = c.NetQueryStream(fs.Arg(0), params, printItem)
			if err != nil && printed > before {
				err = &partialDeliveryError{err: err, items: printed - before}
			}
			return err
		}); err != nil {
			fail(err)
		}
		if !sum.Complete && !sum.Aborted {
			logger.Warn("netquery delivered PARTIAL results",
				wlog.AttrTx, sum.TxID, "items", sum.Count, "shortfall", sum.Shortfall,
				"nodes-contacted", sum.NodesContacted, "nodes-responded", sum.NodesResponded)
		}
		logger.Info("netquery done",
			wlog.AttrTx, sum.TxID, "items", sum.Count, "complete", sum.Complete,
			"aborted", sum.Aborted, "nodes-contacted", sum.NodesContacted,
			"nodes-responded", sum.NodesResponded, "elapsed", sum.Elapsed)
	case "publish":
		if *link == "" {
			fail(fmt.Errorf("publish needs -link"))
		}
		t := &tuple.Tuple{Link: *link, Type: *typ, Context: *ctx}
		if t.Type == "" {
			t.Type = tuple.TypeService
		}
		if *contentFile != "" {
			f, err := os.Open(*contentFile)
			if err != nil {
				fail(err)
			}
			doc, err := xmldoc.Parse(f)
			f.Close()
			if err != nil {
				fail(err)
			}
			t.Content = doc.DocumentElement()
		}
		var granted time.Duration
		if err := attempt(func(c *wsda.Client) (err error) {
			granted, err = c.Publish(t, *ttl)
			return err
		}); err != nil {
			fail(err)
		}
		fmt.Printf("published %s, granted ttl %v\n", *link, granted)
	case "unpublish":
		if *link == "" {
			fail(fmt.Errorf("unpublish needs -link"))
		}
		if err := attempt(func(c *wsda.Client) error { return c.Unpublish(*link) }); err != nil {
			fail(err)
		}
		fmt.Printf("unpublished %s\n", *link)
	default:
		usage()
	}
}
