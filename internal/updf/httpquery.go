package updf

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/telemetry"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// NetQueryHandler builds the HTTP handler behind a peer's /netquery
// endpoint: it submits the POSTed XQuery through the originator and
// delivers the results either buffered (one <results> document with
// accounting attributes on the root) or, with stream=true, as a chunked
// stream of per-item elements terminated by a <summary> trailer — the
// HTTP edge of pipelined routed execution (thesis Ch. 6.5).
//
// Query parameters: mode (routed|direct|metadata|referral), radius,
// timeout-ms, pipeline, policy, fanout, retries, stream, max-results.
// max-results=N closes the transaction network-wide (KindClose) as soon
// as N items have been delivered; a client disconnect does the same
// instead of letting the query run to its abort deadline.
//
// m, when non-nil, records the edge time-to-first-item histogram
// (wsda_http_first_item_seconds, path="netquery") for streamed requests.
// fr, when non-nil, ties streamed deliveries into the flight recorder:
// the minted transaction ID is bound to the stream writer so per-item
// stream-item events and the stream-close trailer land in the same
// /debug/query/<tx> recording as the network-side events.
func NetQueryHandler(o *Originator, entry string, m *telemetry.Metrics, fr *telemetry.FlightRecorder) http.HandlerFunc {
	var firstItem *telemetry.Histogram
	if m != nil {
		firstItem = m.HistogramVec(wsda.MetricFirstItemSeconds,
			"Time from request start to the first streamed result item leaving the HTTP edge.",
			nil, "path").With("netquery")
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, wsda.MaxQueryBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > wsda.MaxQueryBytes {
			http.Error(w, "query too large", http.StatusRequestEntityTooLarge)
			return
		}
		q := r.URL.Query()
		spec := QuerySpec{
			Query:  string(body),
			Entry:  entry,
			Mode:   pdp.Routed,
			Cancel: r.Context().Done(),
		}
		switch q.Get("mode") {
		case "", "routed":
		case "direct":
			spec.Mode = pdp.Direct
		case "metadata":
			spec.Mode = pdp.Metadata
		case "referral":
			spec.Mode = pdp.Referral
		default:
			http.Error(w, "unknown mode", http.StatusBadRequest)
			return
		}
		spec.Radius = -1
		if s := q.Get("radius"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad radius", http.StatusBadRequest)
				return
			}
			spec.Radius = v
		}
		if s := q.Get("timeout-ms"); s != "" {
			ms, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad timeout-ms", http.StatusBadRequest)
				return
			}
			spec.AbortTimeout = time.Duration(ms) * time.Millisecond
			spec.LoopTimeout = 2 * spec.AbortTimeout
		}
		spec.Pipeline = q.Get("pipeline") == "true"
		spec.Policy = q.Get("policy")
		if s := q.Get("retries"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad retries", http.StatusBadRequest)
				return
			}
			spec.MaxRetries = v
		}
		if s := q.Get("fanout"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad fanout", http.StatusBadRequest)
				return
			}
			spec.Fanout = v
		}
		maxResults := 0
		if s := q.Get("max-results"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad max-results", http.StatusBadRequest)
				return
			}
			maxResults = v
		}

		start := time.Now()
		var sw *wsda.StreamWriter
		if q.Get("stream") == "true" {
			sw = wsda.NewStreamWriter(w)
			if fr != nil {
				stream := sw
				spec.OnTx = func(tx string) { stream.SetFlight(fr, tx) }
			}
		}
		count := 0
		if sw != nil || maxResults > 0 {
			// Items leave through the callback the moment they arrive from
			// the network; returning false closes the transaction with
			// KindClose so every node downstream stops working for us.
			spec.OnItem = func(it xq.Item, source string) bool {
				if sw != nil {
					if count == 0 {
						firstItem.ObserveSince(start)
					}
					if sw.WriteItem(it) != nil {
						return false
					}
				}
				count++
				return maxResults == 0 || count < maxResults
			}
		}
		rs, err := o.Submit(spec)
		if err != nil {
			if sw == nil || !sw.Started() {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			_ = sw.Close(wsda.StreamSummary{Complete: false, Elapsed: time.Since(start), Network: true})
			return
		}
		// An incomplete answer names its shortfall (the downstream failure
		// notes) so clients can report what is missing instead of just that
		// something is.
		shortfall := ""
		if !rs.Complete && len(rs.Errs) > 0 {
			shortfall = strings.Join(rs.Errs, "; ")
		}
		sum := wsda.StreamSummary{
			TxID:     rs.TxID,
			Complete: rs.Complete,
			Aborted:  rs.Aborted,
			Elapsed:  rs.Elapsed,
			Network:  true, NodesContacted: rs.NodesContacted, NodesResponded: rs.NodesResponded,
			Shortfall: shortfall,
		}
		if sw != nil {
			_ = sw.Close(sum)
			return
		}
		wsda.WriteResults(w, &sum, rs.Items)
	}
}
