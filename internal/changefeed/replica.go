package changefeed

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/registry"
	"wsda/internal/telemetry"
	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
)

// Config configures a Replica.
type Config struct {
	// Primary is the base URL of the primary node (scheme://host:port);
	// the replica appends the changefeed binding paths.
	Primary string

	// Registry is the local registry replicated state is applied into. It
	// should be dedicated to the replica: local writers would race the
	// feed.
	Registry *registry.Registry

	// HTTP is the client used against the primary; nil builds one whose
	// timeout comfortably exceeds the long-poll wait.
	HTTP *http.Client

	// LongPollWait is the wait-ms hint sent with feed requests; the
	// primary holds the request until a change arrives or the wait
	// elapses. 0 disables long-polling (plain polling every
	// PollInterval).
	LongPollWait time.Duration

	// PollInterval spaces feed requests when long-polling is disabled or
	// a poll came back empty. Defaults to 100ms.
	PollInterval time.Duration

	// BackoffMin and BackoffMax bound the exponential backoff (with
	// jitter) applied after feed or bootstrap failures. Defaults: 100ms
	// and 10s.
	BackoffMin, BackoffMax time.Duration

	// Filter, when set, restricts replication to the keys it accepts: only
	// matching snapshot tuples and feed changes are applied, and bootstrap
	// delete-reconciliation only touches matching local keys. This is the
	// key-range hook shard rebalancing uses — a joining shard tails each
	// old owner for exactly the slice of the key space it is taking over,
	// while several such replicas share one registry without clobbering
	// each other's ranges. Nil replicates everything.
	Filter func(key string) bool

	// Metrics, when set, exposes replication lag, staleness, applied
	// deltas, re-bootstraps and feed errors. One replica per metrics
	// registry: the families are unlabeled.
	Metrics *telemetry.Metrics

	// Log, when set, receives the replica's own diagnostics — today just
	// the fatal-config auth rejection, logged at error once per outage
	// instead of once per retry. Nil logs nothing.
	Log *slog.Logger
}

// Stats is a snapshot of a replica's replication progress.
type Stats struct {
	Cursor     uint64    // primary generation applied through
	PrimaryGen uint64    // latest primary generation observed
	Lag        uint64    // PrimaryGen - Cursor
	Applied    int64     // deltas applied (bootstrap tuples excluded)
	Bootstraps int64     // snapshot bootstraps, initial one included
	FeedErrors int64     // failed feed/snapshot rounds
	LastSync   time.Time // wall-clock time of the last successful sync
}

// Replica tails a primary's change feed into a local registry: a Tailer
// whose consumer applies pages to the registry and resyncs by snapshot
// bootstrap. Create with New, drive with Run (or Step for deterministic
// tests), query the local registry as usual.
type Replica struct {
	cfg  Config
	tail *Tailer

	primaryGen   atomic.Uint64
	applied      atomic.Int64
	bootstraps   atomic.Int64
	feedErrors   atomic.Int64
	authFailures atomic.Int64

	mu          sync.Mutex
	fatalConfig string // non-empty while the primary rejects us as unauthorized
	authLogged  bool   // the current auth outage has been logged already
}

// New returns a replica for cfg. Call Run to start replication.
func New(cfg Config) *Replica {
	r := &Replica{cfg: cfg}
	r.tail = NewTailer(replicaFeed{r}, cfg.Primary, cfg.HTTP, cfg.LongPollWait)
	// A replica owes its readers the full tuple set, so its first round is
	// the snapshot, not a feed poll: against an idle primary a leading
	// long-poll would hold readiness back for the whole wait.
	r.tail.resync.Store(true)
	if cfg.PollInterval > 0 {
		r.tail.poll = cfg.PollInterval
	}
	if cfg.BackoffMin > 0 {
		r.tail.backoff.Initial = cfg.BackoffMin
	}
	if cfg.BackoffMax > 0 {
		r.tail.backoff.Max = cfg.BackoffMax
	}
	if m := cfg.Metrics; m != nil {
		m.GaugeFunc("wsda_replica_lag_generations",
			"Primary generations observed but not yet applied locally.",
			func() float64 { return float64(r.Stats().Lag) })
		m.GaugeFunc("wsda_replica_staleness_seconds",
			"Seconds since the replica last successfully synced with its primary.",
			func() float64 { return r.Staleness().Seconds() })
		m.CounterFunc("wsda_replica_applied_changes_total",
			"Change-feed deltas applied into the local registry.",
			r.applied.Load)
		m.CounterFunc("wsda_replica_bootstraps_total",
			"Snapshot bootstraps, including the initial one and journal-truncation recoveries.",
			r.bootstraps.Load)
		m.CounterFunc("wsda_replica_feed_errors_total",
			"Failed feed or snapshot rounds against the primary.",
			r.feedErrors.Load)
		m.CounterFunc("wsda_replica_auth_failures_total",
			"Feed or snapshot rounds the primary rejected as unauthorized (401/403) — a fatal configuration error (missing or wrong -peer-token), not a transient outage.",
			r.authFailures.Load)
	}
	return r
}

// Registry returns the local registry replicated state is applied into —
// the store a replica node serves queries from.
func (r *Replica) Registry() *registry.Registry { return r.cfg.Registry }

// Stats returns a snapshot of replication progress.
func (r *Replica) Stats() Stats {
	cur, pg := r.tail.Cursor(), r.primaryGen.Load()
	lag := uint64(0)
	if pg > cur {
		lag = pg - cur
	}
	var last time.Time
	if ns := r.tail.lastSync.Load(); ns != 0 {
		last = time.Unix(0, ns)
	}
	return Stats{
		Cursor:     cur,
		PrimaryGen: pg,
		Lag:        lag,
		Applied:    r.applied.Load(),
		Bootstraps: r.bootstraps.Load(),
		FeedErrors: r.feedErrors.Load(),
		LastSync:   last,
	}
}

// Lag returns the current replication lag in generations.
func (r *Replica) Lag() uint64 { return r.Stats().Lag }

// Status is the operator-facing condition of a replica: readiness plus any
// fatal configuration error replication is stalled on.
type Status struct {
	// Ready mirrors Ready(): the bootstrap has landed and no resync is
	// pending.
	Ready bool
	// FatalConfig is non-empty while the primary rejects this replica as
	// unauthorized (401/403): replication cannot make progress until the
	// operator fixes -peer-token (or the primary's tenants file). Unlike an
	// outage, waiting does not help.
	FatalConfig string
	// Stats is the usual progress snapshot.
	Stats Stats
}

// Status returns the replica's operator-facing condition. A non-empty
// FatalConfig distinguishes "the primary is down, retrying" from "the
// primary is up and refusing us" — the latter needs a config fix, not
// patience.
func (r *Replica) Status() Status {
	r.mu.Lock()
	fatal := r.fatalConfig
	r.mu.Unlock()
	return Status{Ready: r.Ready(), FatalConfig: fatal, Stats: r.Stats()}
}

// Ready reports whether the replica is fit to serve reads: the initial
// snapshot bootstrap has completed and no re-bootstrap is pending. It
// flips false when a primary restart, journal truncation, or future
// cursor forces a resync, and back true once the new snapshot lands —
// the value behind a replica daemon's /readyz.
func (r *Replica) Ready() bool {
	return r.bootstraps.Load() > 0 && !r.tail.resync.Load()
}

// Staleness returns how long ago the replica last synced successfully
// with its primary (0 before the first sync) — the sample feeding the
// replica-staleness SLO.
func (r *Replica) Staleness() time.Duration { return r.tail.Staleness() }

// Run replicates until ctx is canceled: bootstrap from snapshot, tail the
// feed, back off exponentially (with jitter) across primary outages,
// re-bootstrap after journal truncation or a primary restart. It returns
// ctx.Err().
func (r *Replica) Run(ctx context.Context) error { return r.tail.Run(ctx) }

// Step performs one replication round — a snapshot bootstrap if one is
// needed, otherwise a single feed poll — and reports whether it applied
// any change. Run loops Step; tests drive it directly for determinism.
func (r *Replica) Step(ctx context.Context) (progressed bool, err error) {
	return r.tail.Step(ctx)
}

// replicaFeed is the Replica as its Tailer sees it; the Consumer methods
// stay off the Replica's own method set.
type replicaFeed struct{ r *Replica }

// Apply folds one contiguous page into the registry.
func (f replicaFeed) Apply(p Page) {
	r := f.r
	applied := 0
	for _, c := range p.Changes {
		if r.cfg.Filter != nil && !r.cfg.Filter(c.Key) {
			continue
		}
		r.cfg.Registry.ApplyReplicated(c)
		applied++
	}
	r.applied.Add(int64(applied))
	r.primaryGen.Store(p.To)
	r.accepted()
}

// Resync fetches the primary's snapshot, applies it, reconciles local
// tuples the snapshot no longer contains, and resumes the feed at the
// snapshot's generation.
func (f replicaFeed) Resync(ctx context.Context, _ Page) (string, uint64, error) {
	r := f.r
	doc, epoch, err := r.tail.get(ctx, PathSnapshot, nil)
	if err != nil {
		return "", 0, err
	}
	root := doc.DocumentElement()
	if root == nil || root.LocalName() != "snapshot" {
		return "", 0, fmt.Errorf("changefeed: bootstrap: expected <snapshot>")
	}
	gen, err := genAttr(root, "gen")
	if err != nil {
		return "", 0, err
	}
	inSnapshot := make(map[string]struct{})
	for _, el := range root.ChildElements() {
		if el.LocalName() != "tuple" {
			continue
		}
		t, err := tupleFromSnapshot(el)
		if err != nil {
			// Mirror Restore's contract: one corrupt element must not
			// prevent the bootstrap.
			continue
		}
		if r.cfg.Filter != nil && !r.cfg.Filter(t.Key) {
			continue
		}
		inSnapshot[t.Key] = struct{}{}
		r.cfg.Registry.ApplyReplicated(t)
	}
	// Drop local tuples the primary no longer has — unpublished while this
	// replica was disconnected, so no journal record will ever say so. With
	// a Filter only this replica's own key slice is reconciled: other keys
	// in the shared registry belong to other sources (or local writers).
	for _, link := range r.cfg.Registry.LiveLinks() {
		if r.cfg.Filter != nil && !r.cfg.Filter(link) {
			continue
		}
		if _, ok := inSnapshot[link]; !ok {
			r.cfg.Registry.ApplyReplicated(registry.Change{Key: link})
		}
	}
	r.primaryGen.Store(gen)
	r.bootstraps.Add(1)
	r.accepted()
	return epoch, gen, nil
}

// Failed counts the round and classifies it for Status(): an auth
// rejection raises the fatal-config flag (counted, logged at error once
// per outage). Other failures leave the flag alone — a rejected replica
// whose primary then goes unreachable is still misconfigured.
func (f replicaFeed) Failed(err error) {
	r := f.r
	r.feedErrors.Add(1)
	if !isAuthError(err) {
		return
	}
	r.authFailures.Add(1)
	r.mu.Lock()
	logIt := !r.authLogged
	r.authLogged = true
	r.fatalConfig = err.Error()
	r.mu.Unlock()
	if logIt && r.cfg.Log != nil {
		r.cfg.Log.Error("primary rejected replica as unauthorized; fix -peer-token (fatal config, not retryable outage)",
			"primary", r.cfg.Primary, "err", err)
	}
}

// accepted clears the fatal-config flag: the primary answered a round.
func (r *Replica) accepted() {
	r.mu.Lock()
	recovered := r.fatalConfig != ""
	r.fatalConfig = ""
	r.authLogged = false
	r.mu.Unlock()
	if recovered && r.cfg.Log != nil {
		r.cfg.Log.Info("primary accepted replica auth again", "primary", r.cfg.Primary)
	}
}

func tupleFromSnapshot(el *xmldoc.Node) (registry.Change, error) {
	t, err := tuple.FromXML(el)
	if err != nil || t.Link == "" {
		return registry.Change{}, fmt.Errorf("changefeed: bad snapshot tuple: %v", err)
	}
	return registry.Change{Key: t.Link, Tuple: t}, nil
}
