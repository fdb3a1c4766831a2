// Package wlog is the discovery plane's structured logging layer: a thin
// configuration shim over the standard library's log/slog that gives every
// daemon and CLI the same three knobs — level, per-component level
// overrides, and output format — plus the correlation attributes (tx,
// component) that tie a log line back to a flight recording and the hop
// tree /debug/traces rebuilds from it.
//
// The default "text" format deliberately mimics the classic log.Printf
// look ("2006/01/02 15:04:05 message key=value"), so flipping a daemon
// from ad-hoc logging to wlog changes nothing for a human tailing stderr;
// "json" switches to slog's JSON handler for machine ingestion.
//
// Per-component levels are spelled in the level string itself:
// "info,updf=debug,replica=warn" runs everything at info except the updf
// and replica components. A component is whatever a caller tags its logger
// with via WithComponent.
package wlog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"
)

// AttrComponent is the attribute key that names the subsystem a logger
// speaks for; per-component level overrides match against it.
const AttrComponent = "component"

// AttrTx is the attribute key carrying a transaction ID, correlating a
// log line with /debug/query/<tx> and /debug/traces?trace=<tx>.
const AttrTx = "tx"

// AttrTenant is the attribute key naming the authenticated tenant a log
// line concerns, correlating it with the wsda_tenant_* metric families.
const AttrTenant = "tenant"

// Config selects level, format and destination for a new logger.
type Config struct {
	// Level is the minimum level, optionally with per-component
	// overrides: "info", "debug", "warn,updf=debug". Empty means "info".
	Level string
	// Format is "text" (human-readable, log.Printf-like; the default) or
	// "json" (one slog JSON object per line).
	Format string
	// W is the destination; nil means os.Stderr.
	W io.Writer
}

// ParseLevel converts a single level word into a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// levels is a parsed level spec: a base level plus per-component
// overrides.
type levels struct {
	base     slog.Level
	override map[string]slog.Level
}

func parseLevels(spec string) (levels, error) {
	l := levels{base: slog.LevelInfo, override: map[string]slog.Level{}}
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if comp, lvl, ok := strings.Cut(part, "="); ok {
			v, err := ParseLevel(lvl)
			if err != nil {
				return l, err
			}
			l.override[strings.TrimSpace(comp)] = v
			continue
		}
		v, err := ParseLevel(part)
		if err != nil {
			return l, err
		}
		if i > 0 {
			return l, fmt.Errorf("base level must come first in %q", spec)
		}
		l.base = v
	}
	return l, nil
}

func (l levels) min(component string) slog.Level {
	if v, ok := l.override[component]; ok {
		return v
	}
	return l.base
}

// filterHandler wraps an inner handler with per-component level
// filtering. It tracks the component attribute through WithAttrs so a
// logger built with WithComponent filters at that component's level.
type filterHandler struct {
	inner     slog.Handler
	levels    levels
	component string
}

// Enabled reports whether a record at the given level should be logged
// for this handler's component.
func (h *filterHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.levels.min(h.component)
}

// Handle forwards the record to the wrapped handler.
func (h *filterHandler) Handle(ctx context.Context, r slog.Record) error {
	return h.inner.Handle(ctx, r)
}

// WithAttrs returns a handler with the attributes bound, adopting a new
// component for filtering when one of them is the component attribute.
func (h *filterHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := &filterHandler{inner: h.inner.WithAttrs(attrs), levels: h.levels, component: h.component}
	for _, a := range attrs {
		if a.Key == AttrComponent {
			nh.component = a.Value.String()
		}
	}
	return nh
}

// WithGroup returns a handler with the group opened on the wrapped
// handler; component filtering is unaffected.
func (h *filterHandler) WithGroup(name string) slog.Handler {
	return &filterHandler{inner: h.inner.WithGroup(name), levels: h.levels, component: h.component}
}

// textHandler renders records in the classic log.Printf shape:
// "2006/01/02 15:04:05 message key=value ...", with a level prefix on
// non-info lines. It keeps daemons' stderr familiar to humans while still
// carrying structured attributes.
type textHandler struct {
	mu    *sync.Mutex
	w     io.Writer
	attrs []slog.Attr
}

func newTextHandler(w io.Writer) *textHandler {
	return &textHandler{mu: &sync.Mutex{}, w: w}
}

// Enabled always reports true; level filtering happens in filterHandler.
func (h *textHandler) Enabled(context.Context, slog.Level) bool { return true }

// Handle writes one formatted line.
func (h *textHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	t := r.Time
	if t.IsZero() {
		t = time.Now()
	}
	b.WriteString(t.Format("2006/01/02 15:04:05"))
	b.WriteByte(' ')
	if r.Level != slog.LevelInfo {
		b.WriteString(r.Level.String())
		b.WriteByte(' ')
	}
	b.WriteString(r.Message)
	writeAttr := func(a slog.Attr) {
		if a.Equal(slog.Attr{}) {
			return
		}
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		v := a.Value.String()
		if strings.ContainsAny(v, " \t\"") {
			fmt.Fprintf(&b, "%q", v)
		} else {
			b.WriteString(v)
		}
	}
	for _, a := range h.attrs {
		writeAttr(a)
	}
	r.Attrs(func(a slog.Attr) bool {
		writeAttr(a)
		return true
	})
	b.WriteByte('\n')
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := io.WriteString(h.w, b.String())
	return err
}

// WithAttrs returns a handler with the attributes appended to every line.
func (h *textHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	na := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	na = append(na, h.attrs...)
	na = append(na, attrs...)
	return &textHandler{mu: h.mu, w: h.w, attrs: na}
}

// WithGroup is accepted but flattened: the text format has no nesting.
func (h *textHandler) WithGroup(string) slog.Handler { return h }

// New builds a logger from cfg. The zero Config yields an info-level,
// text-format logger on stderr.
func New(cfg Config) (*slog.Logger, error) {
	lv, err := parseLevels(cfg.Level)
	if err != nil {
		return nil, err
	}
	w := cfg.W
	if w == nil {
		w = os.Stderr
	}
	var inner slog.Handler
	switch cfg.Format {
	case "", "text":
		inner = newTextHandler(w)
	case "json":
		inner = slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", cfg.Format)
	}
	return slog.New(&filterHandler{inner: inner, levels: lv}), nil
}

// WithComponent tags l with a component name; per-component level
// overrides apply from here down.
func WithComponent(l *slog.Logger, component string) *slog.Logger {
	return l.With(AttrComponent, component)
}

// WithTx tags l with a transaction ID for flight-recorder correlation.
func WithTx(l *slog.Logger, tx string) *slog.Logger {
	return l.With(AttrTx, tx)
}
