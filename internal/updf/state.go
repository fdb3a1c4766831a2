package updf

import (
	"sync"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/xq"
)

// txState is one entry of a node's state table (thesis Ch. 7.6): everything
// the node remembers about an in-flight transaction. Entries are soft
// state: they are retained until the query's static loop timeout and then
// garbage collected, which is what makes loop detection via transaction
// IDs reliable — a transaction ID cannot be mistaken for new after every
// node has forgotten it, because by then it is past its loop timeout and
// would be dropped anyway.
type txState struct {
	mu sync.Mutex

	parent   string // node/originator the query arrived from
	origin   string // originator address (Direct/Metadata/Fetch)
	mode     pdp.ResponseMode
	pipeline bool

	pending map[string]bool // children still owing a final message

	// children tracks every neighbor this node forwarded the query to,
	// keyed by address — the retransmission and completeness bookkeeping
	// that pending alone (which only shrinks) cannot carry.
	children map[string]*childState

	// skipped counts neighbors the circuit breaker excluded from
	// forwarding. They are not contacted, but their absence makes the
	// subtree's answer incomplete.
	skipped int

	// Subtree accounting aggregated from child finals (thesis-level
	// partial-result semantics; see DESIGN.md "Fault model and resilience").
	childContacted  int  // Σ nodes-contacted over child finals
	childResponded  int  // Σ nodes-responded over child finals
	childIncomplete bool // some child final carried complete="false"

	// finalOut records the final upstream message so a parent's
	// retransmitted query can be answered by resending it instead of
	// re-running the transaction.
	finalOut *pdp.Message

	// buffered holds items not yet sent upstream (store-and-forward mode)
	// or, in Metadata mode, the local items retained for a later Fetch.
	buffered xq.Sequence

	localHits   int // items this node produced locally
	subtreeHits int // items produced in the whole subtree

	// localDone marks the local evaluation complete. Completion requires
	// it: without this gate, a fast child's final arriving while the local
	// evaluation is still running would finalize the transaction and drop
	// the node's own results (transports may deliver concurrently).
	localDone bool

	finalSent bool
	aborted   bool
	timer     *time.Timer // dynamic abort timer
	evalErr   string
}

// childState is the per-child retransmission record: the exact query
// message sent (deadlines are absolute, so a resend is byte-identical),
// the retry timer, and how many retransmissions remain.
type childState struct {
	msg      *pdp.Message
	timer    *time.Timer
	left     int           // retransmissions remaining
	interval time.Duration // next retry delay (doubles per attempt)
	done     bool          // child delivered its final

	// Routed-mode drain accounting: received counts result items that
	// arrived from this child, promised is the subtree item total its
	// final declared (pdp.Message.HitCount). Pipelined partials travel on
	// their own messages and a reordering transport can deliver them
	// after the final — the subtree must not finalize while a child's
	// declared items are still in flight, or they are dropped as late.
	received int
	promised int
}

// childrenDrainedLocked reports whether every finalized routed child has
// delivered as many result items as its final declared. Always true
// outside Routed mode (Direct/Metadata items bypass the parent). st.mu
// must be held.
func (st *txState) childrenDrainedLocked() bool {
	if st.mode != pdp.Routed {
		return true
	}
	for _, cs := range st.children {
		if cs.done && cs.received < cs.promised {
			return false
		}
	}
	return true
}
