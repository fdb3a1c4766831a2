// Cursor pagination over the WSDA query binding (S30). A page request
// carries page-size (the bound) and optionally page-cursor (an opaque
// continuation minted by the previous page's <summary>); the response is a
// streamed <results> holding at most page-size items whose trailer carries
// next-cursor while more items remain.
//
// The cursor encodes the item offset into the query's result sequence.
// Both the planner's candidate walk and the tuple-set view deliver items
// in document order — tuples sorted by link — so offsets are stable across
// requests as long as the tuple set itself is stable; a mutation between
// pages can shift items across page boundaries (skip or repeat), exactly
// the anomaly every offset cursor has. Callers that need a consistent
// snapshot should drain the pages promptly or watch the change feed (the
// SDK's Pager rides a feed-invalidated cache for this reason).

package wsda

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"

	"wsda/internal/registry"
	"wsda/internal/xq"
)

// pageCursorPrefix versions the cursor wire format so a future anchored
// (keyset) cursor can coexist with offset cursors.
const pageCursorPrefix = "wsda.p1:"

// EncodePageCursor mints the opaque continuation cursor for the given item
// offset. The encoding is deliberately opaque on the wire: clients must
// round-trip it verbatim, not construct or interpret it.
func EncodePageCursor(offset int) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(pageCursorPrefix + strconv.Itoa(offset)))
}

// DecodePageCursor validates an opaque continuation cursor and returns the
// item offset it encodes. Handlers answer a failed decode with 400: a
// malformed cursor stays malformed however often it is resent.
func DecodePageCursor(cursor string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return 0, fmt.Errorf("bad page-cursor: %v", err)
	}
	s, ok := strings.CutPrefix(string(raw), pageCursorPrefix)
	if !ok {
		return 0, fmt.Errorf("bad page-cursor: unknown format")
	}
	off, err := strconv.Atoi(s)
	if err != nil || off < 0 {
		return 0, fmt.Errorf("bad page-cursor: bad offset")
	}
	return off, nil
}

// Page is one page of a cursor-paginated query result.
type Page struct {
	// Items are this page's result items, at most the requested page size.
	Items xq.Sequence
	// Next is the continuation cursor for the following page; empty when
	// this was the final page.
	Next string
	// Summary is the page's stream accounting (plan header, elapsed,
	// completeness of the page's own delivery).
	Summary *StreamSummary
}

// XQueryPage runs one page of a cursor-paginated query against the remote
// node: up to pageSize items starting at the continuation cursor ("" for
// the first page). The sdk package's Pager iterates this.
func (c *Client) XQueryPage(query string, opts registry.QueryOptions, pageSize int, cursor string) (*Page, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("wsda: page size must be positive")
	}
	q := QueryParams(opts, 0)
	q.Set("page-size", strconv.Itoa(pageSize))
	if cursor != "" {
		q.Set("page-cursor", cursor)
	}
	var items xq.Sequence
	sum, err := c.postStream(PathXQuery, q, query, func(it xq.Item) bool {
		items = append(items, it)
		return true
	})
	if err != nil {
		return nil, err
	}
	if opts.Explain != nil {
		*opts.Explain = registry.ParsePlanInfo(sum.Plan)
	}
	return &Page{Items: items, Next: sum.NextCursor, Summary: sum}, nil
}
