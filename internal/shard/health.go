package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// ErrBootstrapping is what a shard's readiness probe returns while its
// rebalance bootstrap is still pulling the key range from the old owners:
// the shard is alive but cannot yet answer for its whole slice.
var ErrBootstrapping = errors.New("shard: bootstrapping")

// ShardHealth is one shard's row in the router's aggregate health report
// (the JSON body of /healthz and /readyz).
type ShardHealth struct {
	Shard  string `json:"shard"`           // backend name (base URL for HTTP shards)
	Index  int    `json:"index"`           // position in the partition map
	Status string `json:"status"`          // "ok", "bootstrapping" or "unreachable"
	Error  string `json:"error,omitempty"` // probe error for non-ok shards
}

// classifyProbe folds a probe error into the health report status: a 503
// (or ErrBootstrapping from an in-process shard) means the shard is alive
// but still bootstrapping its key range; anything else means it is
// unreachable.
func classifyProbe(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBootstrapping), backendStatus(err) == http.StatusServiceUnavailable:
		return "bootstrapping"
	}
	return "unreachable"
}

// CheckShards probes every shard in the current partition map in
// parallel — liveness probes for ready=false, readiness probes for
// ready=true — each bounded by the configured health timeout. It reports
// whether every shard is ok, plus the per-shard rows.
func (rt *Router) CheckShards(ctx context.Context, ready bool) (bool, []ShardHealth) {
	backends := rt.Backends()
	rows := make([]ShardHealth, len(backends))
	fanOut(backends, func(i int, b Backend) {
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
		defer cancel()
		probe := b.Healthy
		if ready {
			probe = b.Ready
		}
		err := probe(pctx)
		rows[i] = ShardHealth{Shard: b.Name(), Index: i, Status: classifyProbe(err)}
		if err != nil {
			rows[i].Error = err.Error()
		}
	})
	ok := true
	for _, row := range rows {
		ok = ok && row.Status == "ok"
	}
	return ok, rows
}

// handleHealth serves the router's aggregate /healthz and /readyz: 200
// with the per-shard report when every shard passes its probe, 503 with
// the same JSON body — naming each failing shard and whether it is
// bootstrapping or unreachable — when any does not. A router with an
// empty partition map is not healthy: it can serve nothing.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	ready := r.URL.Path == "/readyz"
	ok, rows := rt.CheckShards(r.Context(), ready)
	if len(rows) == 0 {
		ok = false
	}
	status := "ok"
	code := http.StatusOK
	if !ok {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"status": status, "shards": rows})
}
