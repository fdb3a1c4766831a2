package updf

import (
	"errors"
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
// Reading the request and writing the response are the shared wsda.Edge's
// (path label "netquery"; see there for m and fr): the minted transaction
// ID is bound to the delivery, so a stream's per-item and trailer events
// land in the same /debug/query/<tx> recording as the network-side events.
func NetQueryHandler(o *Originator, entry string, m *telemetry.Metrics, fr *telemetry.FlightRecorder) http.HandlerFunc {
	// Items arrive in network order, so the edge refuses pages.
	edge := wsda.NewEdge(m, fr, "netquery", false)
	return func(w http.ResponseWriter, r *http.Request) {
		query, _, d := edge.Open(w, r)
		if d == nil {
			return
		}
		bad := func(what string) { d.Fail(errors.New(what), http.StatusBadRequest) }
		q := r.URL.Query()
		spec := QuerySpec{
			Query:  query,
			Entry:  entry,
			Mode:   pdp.Routed,
			Cancel: r.Context().Done(),
			OnTx:   d.SetTx,
			// Items leave through the callback the moment they arrive from
			// the network; returning false closes the transaction with
			// KindClose so every node downstream stops working for us.
			OnItem: func(it xq.Item, _ string) bool { return d.Item(it) },
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
			bad("unknown mode")
			return
		}
		spec.Radius = -1
		if s := q.Get("radius"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				bad("bad radius")
				return
			}
			spec.Radius = v
		}
		if s := q.Get("timeout-ms"); s != "" {
			ms, err := strconv.Atoi(s)
			if err != nil {
				bad("bad timeout-ms")
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
				bad("bad retries")
				return
			}
			spec.MaxRetries = v
		}
		if s := q.Get("fanout"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				bad("bad fanout")
				return
			}
			spec.Fanout = v
		}

		rs, err := o.Submit(spec)
		if err != nil {
			d.Fail(err, http.StatusUnprocessableEntity)
			return
		}
		// An incomplete answer names its shortfall (the downstream failure
		// notes) so clients can report what is missing instead of just that
		// something is.
		shortfall := ""
		if !rs.Complete && len(rs.Errs) > 0 {
			shortfall = strings.Join(rs.Errs, "; ")
		}
		d.Finish(wsda.StreamSummary{
			TxID:     rs.TxID,
			Complete: rs.Complete,
			Aborted:  rs.Aborted,
			Elapsed:  rs.Elapsed,
			Network:  true, NodesContacted: rs.NodesContacted, NodesResponded: rs.NodesResponded,
			Shortfall: shortfall,
		})
	}
}
