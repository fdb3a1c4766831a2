// Package daemon is what a WSDA daemon is apart from its wiring: the flag
// groups registryd, routerd and peerd share, the logger, the telemetry
// bundle, the standard endpoint surface (/healthz, /readyz, /metrics,
// /debug/*, /slo, optional pprof), the optional tenant gate around the
// whole mux, the http.Server with its timeouts, signal-driven graceful
// shutdown and the final metrics snapshot. A main declares its own flags
// beside New's, builds its node against the Daemon's Log/Metrics/Tracer/
// Flight/SLO, mounts its own paths on Mux and calls Serve.
package daemon

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsda/internal/telemetry"
	"wsda/internal/tenant"
	"wsda/internal/wlog"
)

// Spec is where the three daemons differ inside the shared flag groups.
type Spec struct {
	// Component names the daemon in its log lines ("registryd").
	Component string
	// Addr and Name are the defaults of -addr and -name.
	Addr, Name string
	// Traces gives the daemon a span tracer (-trace-capacity, the data
	// behind /debug/traces); routerd keeps none.
	Traces bool
	// ReadTimeout registers -read-timeout. routerd does without: a streamed
	// scatter-gather response may legitimately outlive any fixed read
	// window, and ReadHeaderTimeout guards its accept path instead.
	ReadTimeout bool
	// TenantEdge registers -tenants, -admit-max and -peer-token: the daemon
	// can be a multi-tenant edge and authenticates to gated peers.
	TenantEdge bool
	// OwnProbes leaves /healthz and /readyz to the daemon's own handler
	// (routerd aggregates them over its shards).
	OwnProbes bool
	// Usage is this daemon's wording for shared flags, keyed by flag name,
	// where it differs from the group's.
	Usage map[string]string
}

// Daemon is one process's shared plumbing. The exported fields are valid
// after Parse; the telemetry handles are nil under -telemetry=false.
type Daemon struct {
	Addr string // -addr
	Name string // -name
	// SLOStaleness is the staleness objective's target; a daemon with
	// replicas binds its own flag to it before Parse, zero is the default.
	SLOStaleness time.Duration

	Log     *slog.Logger              // component-tagged logger
	Metrics *telemetry.Metrics        // metric registry
	Tracer  *telemetry.Tracer         // span tracer (Spec.Traces)
	Flight  *telemetry.FlightRecorder // per-transaction flight recorder
	SLO     *telemetry.SLO            // burn-rate engine, registered on Metrics
	Mux     *http.ServeMux            // the daemon mounts its own paths here

	spec Spec
	fs   *flag.FlagSet

	telemetryOn, pprofOn bool
	traceCap             int
	logLevel, logFormat  string
	sloFirstItem         time.Duration
	sloCompleteness      float64

	readHeaderTimeout, readTimeout, idleTimeout, shutdownGrace time.Duration

	tenantsFile string
	admitMax    int
	peerToken   string
}

// New registers the shared flag groups on fs and returns the Daemon they
// fill in. Declare the daemon's own flags on fs, then call Parse.
func New(fs *flag.FlagSet, spec Spec) *Daemon {
	d := &Daemon{spec: spec, fs: fs, Mux: http.NewServeMux()}
	fs.StringVar(&d.Addr, "addr", spec.Addr, "HTTP listen address")
	fs.StringVar(&d.Name, "name", spec.Name, "service name")
	fs.BoolVar(&d.telemetryOn, "telemetry", true, "collect metrics and traces, serve /metrics and /debug endpoints")
	fs.BoolVar(&d.pprofOn, "pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
	fs.StringVar(&d.logLevel, "log-level", "info", "log level, optionally with per-component overrides")
	fs.StringVar(&d.logFormat, "log-format", "text", "log output format: text (human-readable) or json")
	fs.DurationVar(&d.sloFirstItem, "slo-first-item", telemetry.DefaultFirstItemTarget, "first-item latency target fed to the SLO engine and the slowlog gate")
	fs.Float64Var(&d.sloCompleteness, "slo-completeness", telemetry.DefaultCompletenessTarget, "completeness-ratio target for the SLO engine")
	fs.DurationVar(&d.readHeaderTimeout, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	fs.DurationVar(&d.idleTimeout, "idle-timeout", 120*time.Second, "http.Server IdleTimeout")
	fs.DurationVar(&d.shutdownGrace, "shutdown-grace", 5*time.Second, "graceful shutdown deadline on SIGINT/SIGTERM")
	if spec.Traces {
		fs.IntVar(&d.traceCap, "trace-capacity", telemetry.DefaultTraceCapacity, "completed spans retained for /debug/traces")
	}
	if spec.ReadTimeout {
		fs.DurationVar(&d.readTimeout, "read-timeout", 30*time.Second, "http.Server ReadTimeout")
	}
	if spec.TenantEdge {
		fs.StringVar(&d.tenantsFile, "tenants", "", "enable the multi-tenant gate: bearer auth, quotas and load shedding from this tenants file (see OPERATIONS.md §7)")
		fs.IntVar(&d.admitMax, "admit-max", tenant.DefaultCapacity, "global in-flight admission slots behind -tenants; browse work sheds at 50%, queries at 90%")
		fs.StringVar(&d.peerToken, "peer-token", "", "bearer token presented to peers that run behind their own tenant gate")
	}
	for name, usage := range spec.Usage {
		fs.Lookup(name).Usage = usage
	}
	return d
}

// Parse parses args (os.Args[1:] in a main) and builds the logger and, if
// -telemetry is on, the telemetry bundle. A bad -log-level or -log-format
// exits 2 like any other flag error.
func (d *Daemon) Parse(args []string) {
	_ = d.fs.Parse(args) // a main's FlagSet is ExitOnError
	logger, err := wlog.New(wlog.Config{Level: d.logLevel, Format: d.logFormat})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d.Log = wlog.WithComponent(logger, d.spec.Component)
	if !d.telemetryOn {
		return
	}
	d.Metrics = telemetry.NewMetrics()
	if d.spec.Traces {
		d.Tracer = telemetry.NewTracer(d.traceCap)
	}
	d.Flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{SlowThreshold: d.sloFirstItem})
	d.SLO = telemetry.NewSLO(telemetry.SLOConfig{
		FirstItemTarget:    d.sloFirstItem,
		CompletenessTarget: d.sloCompleteness,
		StalenessTarget:    d.SLOStaleness,
	})
	d.SLO.RegisterMetrics(d.Metrics)
}

// Fatal logs msg at error and exits 1 — a daemon that cannot be wired as
// configured does not start.
func (d *Daemon) Fatal(msg string, args ...any) {
	d.Log.Error(msg, args...)
	os.Exit(1)
}

// BaseURL is the URL the daemon advertises for itself in its service
// description: -addr with localhost filled in for a bare port.
func (d *Daemon) BaseURL() string {
	if len(d.Addr) > 0 && d.Addr[0] == ':' {
		return "http://localhost" + d.Addr
	}
	return "http://" + d.Addr
}

// PeerClient returns the HTTP client for the daemon's own outbound calls
// (feed tails, shard backends): it presents -peer-token when one is set.
func (d *Daemon) PeerClient(timeout time.Duration) *http.Client {
	return tenant.WithToken(&http.Client{Timeout: timeout}, d.peerToken)
}

// handler completes the mux with the standard surface and returns what the
// server serves: /healthz, and /readyz answering 503 with ready's reason
// until ready returns "" (nil ready: always ready), unless Spec.OwnProbes;
// the telemetry and observability endpoints when telemetry is on;
// /debug/pprof/ behind -pprof; and, with -tenants, the gate around all of
// it — nothing is reachable without a token except the bypassed probe and
// scrape paths. Without -tenants the handler is the mux itself: the kit
// adds no per-request layer.
func (d *Daemon) handler(ready func() string) (http.Handler, error) {
	mux := d.Mux
	if !d.spec.OwnProbes {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			if ready != nil {
				if why := ready(); why != "" {
					http.Error(w, why, http.StatusServiceUnavailable)
					return
				}
			}
			fmt.Fprintln(w, "ready")
		})
	}
	if d.telemetryOn {
		telemetry.Mount(mux, d.Metrics, d.Tracer)
		telemetry.MountObservability(mux, d.Flight, d.SLO)
	}
	if d.pprofOn {
		// The package's init only registers on http.DefaultServeMux.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if d.tenantsFile == "" {
		return mux, nil
	}
	set, err := tenant.LoadFile(d.tenantsFile)
	if err != nil {
		return nil, fmt.Errorf("loading -tenants: %w", err)
	}
	d.Log.Info("multi-tenant gate enabled", "tenants", set.Len(), "admit-max", d.admitMax)
	return tenant.NewGate(tenant.Config{
		Set:      set,
		Capacity: d.admitMax,
		Node:     d.Name,
		Metrics:  d.Metrics,
		Flight:   d.Flight,
		Log:      wlog.WithComponent(d.Log, "tenant"),
	}).Wrap(mux), nil
}

// Serve completes the mux with the standard surface (see handler) and
// serves it on -addr until the server fails (exit 1) or
// SIGINT/SIGTERM arrives; it then drains connections within
// -shutdown-grace and logs the closing metrics snapshot, so a scrape gap
// at shutdown loses nothing.
func (d *Daemon) Serve(ready func() string) {
	handler, err := d.handler(ready)
	if err != nil {
		d.Fatal("daemon setup failed", "err", err)
	}
	srv := &http.Server{
		Addr:              d.Addr,
		Handler:           handler,
		ReadHeaderTimeout: d.readHeaderTimeout,
		ReadTimeout:       d.readTimeout,
		IdleTimeout:       d.idleTimeout,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err = <-errCh:
	case <-ctx.Done():
		d.Log.Info("signal received, draining connections", "grace", d.shutdownGrace)
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), d.shutdownGrace)
		defer cancelShutdown()
		err = srv.Shutdown(shutdownCtx)
	}
	if err != nil {
		d.Fatal("server exited", "err", err)
	}
	if d.Metrics != nil {
		if data, err := json.Marshal(d.Metrics.Snapshot()); err == nil {
			d.Log.Info("final metrics snapshot", "snapshot", string(data))
		}
	}
}
