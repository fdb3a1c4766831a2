package changefeed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wsda/internal/resilience"
	"wsda/internal/xmldoc"
)

// Consumer is the state a Tailer folds a feed into. Its methods are called
// from the goroutine driving Run (or Step), never concurrently.
type Consumer interface {
	// Apply folds in one page that continues the cursor: same epoch, not
	// truncated, To at or past the cursor. The tailer advances the cursor
	// to p.To after Apply returns, so an observer that sees the new cursor
	// also sees the page's effects.
	Apply(p Page)
	// Resync re-establishes the consumer's state after the feed could not
	// be followed from the cursor, and says where tailing resumes. gap is
	// the page that broke continuity — a new epoch (restarted origin), a
	// truncated journal, or a To behind the cursor — or the zero Page when
	// the consumer asked to start with a resync. A consumer with a
	// full-state obligation fetches the origin's snapshot here; one without
	// drops what it holds and resumes at gap.To.
	Resync(ctx context.Context, gap Page) (epoch string, cursor uint64, err error)
	// Failed reports a round (feed request or Resync) that failed while
	// ctx was still live; the tailer backs off and retries.
	Failed(err error)
}

// Tailer follows one origin's /wsda/feed from a cursor: request, size
// limit, parse, continuity check, retry pacing. What a page means is the
// Consumer's business. Create with NewTailer, drive with Run (or Step for
// deterministic tests).
type Tailer struct {
	origin string
	hc     *http.Client
	wait   time.Duration
	c      Consumer

	poll    time.Duration      // pacing between empty plain polls
	backoff resilience.Backoff // delay series between failed rounds

	epoch    string        // origin incarnation the cursor belongs to
	gap      Page          // what Resync is told when resync is set
	resync   atomic.Bool   // the next round re-establishes state instead of polling
	cursor   atomic.Uint64 // origin generation applied through
	lastSync atomic.Int64  // UnixNano of the last round that advanced or confirmed the cursor; 0 = never
}

// NewTailer returns a tailer folding origin's feed (base URL, scheme://
// host:port) into c. wait is the long-poll hint sent as wait-ms; <= 0 polls
// plainly, pacing empty rounds. A nil hc gets a client whose timeout
// comfortably exceeds wait.
func NewTailer(c Consumer, origin string, hc *http.Client, wait time.Duration) *Tailer {
	if hc == nil {
		hc = &http.Client{Timeout: max(wait, 0) + 15*time.Second}
	}
	return &Tailer{
		origin: origin, hc: hc, wait: wait, c: c,
		poll:    100 * time.Millisecond,
		backoff: resilience.NewBackoff(100*time.Millisecond, 10*time.Second),
	}
}

// Cursor returns the origin generation the consumer's state reflects.
func (t *Tailer) Cursor() uint64 { return t.cursor.Load() }

// Staleness returns how long ago a round last advanced or confirmed the
// cursor (0 before the first).
func (t *Tailer) Staleness() time.Duration {
	ns := t.lastSync.Load()
	if ns == 0 {
		return 0
	}
	return time.Since(time.Unix(0, ns))
}

// Run tails until ctx is canceled and returns ctx.Err(). Failed rounds are
// retried on an exponential series with jitter; an auth rejection goes
// straight to the slow end of it — the origin is up and refusing us, so
// hammering cannot help, and probing slowly still heals a fixed tenants
// file without a restart.
func (t *Tailer) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, err := t.Step(ctx)
		switch {
		case err != nil:
			d := t.backoff.Next()
			if isAuthError(err) {
				d = t.backoff.Max
			}
			if !sleepCtx(ctx, jitter(d)) {
				return ctx.Err()
			}
			continue
		case !progressed && t.wait <= 0 && !t.resync.Load():
			// Plain polling and nothing new: pace the next poll. With
			// long-polling the origin already did the waiting.
			if !sleepCtx(ctx, t.poll) {
				return ctx.Err()
			}
		}
		t.backoff.Reset()
	}
}

// Step performs one round — the armed resync if there is one, otherwise a
// single feed request from the cursor — and reports whether the consumer's
// state advanced. A round that finds the feed discontinuous applies
// nothing, reports no progress and arms the resync the next round performs.
func (t *Tailer) Step(ctx context.Context) (progressed bool, err error) {
	if t.resync.Load() {
		epoch, cursor, err := t.c.Resync(ctx, t.gap)
		if err != nil {
			return false, t.failed(ctx, err)
		}
		t.epoch, t.gap = epoch, Page{}
		t.synced(cursor)
		t.resync.Store(false)
		return true, nil
	}
	cursor := t.cursor.Load()
	doc, hdrEpoch, err := t.get(ctx, t.feedPath(cursor))
	if err != nil {
		return false, t.failed(ctx, err)
	}
	p, err := UnmarshalPage(doc)
	if err != nil {
		return false, t.failed(ctx, err)
	}
	if p.Epoch == "" {
		p.Epoch = hdrEpoch
	}
	if p.Epoch != t.epoch || p.Truncated || p.To < cursor {
		t.gap = p
		t.resync.Store(true)
		return false, nil
	}
	t.c.Apply(p)
	t.synced(p.To)
	return len(p.Changes) > 0, nil
}

func (t *Tailer) synced(cursor uint64) {
	t.cursor.Store(cursor)
	t.lastSync.Store(time.Now().UnixNano())
}

// failed hands a round's error to the consumer unless the round died of
// its own cancellation — a clean stop is not an origin failure.
func (t *Tailer) failed(ctx context.Context, err error) error {
	if ctx.Err() == nil {
		t.c.Failed(err)
	}
	return err
}

// feedPath is the one place the feed request is spelled.
func (t *Tailer) feedPath(cursor uint64) string {
	u := PathFeed + "?since=" + strconv.FormatUint(cursor, 10)
	if t.wait > 0 {
		u += "&wait-ms=" + strconv.FormatInt(t.wait.Milliseconds(), 10)
	}
	return u
}

// get fetches origin+path and parses the XML body, returning the epoch
// header alongside.
func (t *Tailer) get(ctx context.Context, path string) (*xmldoc.Node, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.origin+path, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", &remoteError{code: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	doc, err := xmldoc.ParseString(string(data))
	if err != nil {
		return nil, "", err
	}
	return doc, resp.Header.Get(EpochHeader), nil
}

// remoteError is a non-200 answer from the origin, typed so an auth
// rejection can be told from a transient failure.
type remoteError struct {
	code int
	body string
}

// Error formats the status and the remote error text.
func (e *remoteError) Error() string {
	return fmt.Sprintf("changefeed: remote error %d: %s", e.code, e.body)
}

// isAuthError reports whether err is an origin's 401/403 — the gated-
// origin/missing-token case that retrying cannot fix.
func isAuthError(err error) bool {
	var re *remoteError
	return errors.As(err, &re) &&
		(re.code == http.StatusUnauthorized || re.code == http.StatusForbidden)
}

// jitter spreads a retry delay uniformly over [d/2, 3d/2) so a fleet of
// tailers does not reconnect in lockstep after an origin restart.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps d or until ctx is done, reporting whether it slept the
// full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
