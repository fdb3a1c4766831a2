package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// MetricsHandler serves the Prometheus text exposition of m. A nil
// registry serves an empty body.
func MetricsHandler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
}

// VarsHandler serves the JSON snapshot of m (expvar-style, but typed).
func VarsHandler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Snapshot())
	})
}

// TracesHandler serves the hop trees rebuilt from fr's flight events as
// JSON. Query parameters: trace=<tx> selects one transaction; limit=N
// bounds how many recent transactions are returned (default 20).
func TracesHandler(fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("trace"); id != "" {
			ti := fr.Trace(id)
			if ti == nil {
				http.Error(w, "no such trace", http.StatusNotFound)
				return
			}
			writeJSON(w, ti)
			return
		}
		limit, err := strconv.Atoi(r.URL.Query().Get("limit"))
		if err != nil || limit <= 0 {
			limit = 20
		}
		writeJSON(w, fr.Traces(limit))
	})
}

// FlightHandler serves one transaction's flight recording as JSON. It is
// meant to be mounted at /debug/query/ (note the trailing slash); the
// transaction ID is the remainder of the path after the mount prefix.
func FlightHandler(fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tx := strings.TrimPrefix(r.URL.Path, "/debug/query/")
		if tx == "" || tx == r.URL.Path {
			http.Error(w, "usage: /debug/query/<tx>", http.StatusBadRequest)
			return
		}
		info := fr.Tx(tx)
		if info == nil {
			http.Error(w, "no such transaction (evicted or never recorded)", http.StatusNotFound)
			return
		}
		writeJSON(w, info)
	})
}

// SlowlogResponse is the /debug/slowlog body: the retained slow or
// incomplete transaction summaries, most recent first.
type SlowlogResponse struct {
	Threshold string          `json:"threshold"` // slowlog admission threshold
	Admitted  int             `json:"admitted"`  // entries ever admitted
	Entries   []FlightSummary `json:"entries"`   // retained summaries, newest first
}

// SlowlogHandler serves the recorder's slowlog as JSON.
func SlowlogHandler(fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entries, total := fr.Slowlog()
		if entries == nil {
			entries = []FlightSummary{}
		}
		writeJSON(w, SlowlogResponse{
			Threshold: fr.SlowThreshold().String(),
			Admitted:  total,
			Entries:   entries,
		})
	})
}

// Mount registers the metrics endpoints — /metrics and /debug/vars — on
// the mux.
func Mount(mux *http.ServeMux, m *Metrics) {
	mux.Handle("/metrics", MetricsHandler(m))
	mux.Handle("/debug/vars", VarsHandler(m))
}

// MountObservability registers the flight-recorder and SLO endpoints —
// /debug/query/<tx>, /debug/traces, /debug/slowlog and /slo — on the mux. Nil arguments
// mount handlers that report empty/disabled state rather than 404s, so
// probes keep working when a daemon runs with telemetry off.
func MountObservability(mux *http.ServeMux, fr *FlightRecorder, s *SLO) {
	mux.Handle("/debug/query/", FlightHandler(fr))
	mux.Handle("/debug/traces", TracesHandler(fr))
	mux.Handle("/debug/slowlog", SlowlogHandler(fr))
	mux.Handle("/slo", SLOHandler(s))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
