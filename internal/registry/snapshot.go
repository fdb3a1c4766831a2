package registry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/xmldoc"
)

// Snapshot serializes the live tuple set (including soft-state deadlines)
// as a <snapshot> document — an operational convenience for backup and
// warm restarts, and the bootstrap payload of the change-feed replication
// subsystem. Soft state makes snapshots safe by construction: a stale
// snapshot's tuples simply expire after restore unless providers refresh
// them.
func (r *Registry) Snapshot(w io.Writer) error {
	_, err := r.SnapshotWithGen(w)
	return err
}

// SnapshotWithGen is Snapshot plus the store generation the snapshot
// corresponds to, read atomically with the tuple set: a replica that
// restores the snapshot and then tails changes from the returned
// generation misses no mutation. The generation is also stamped on the
// root element as gen="N".
//
// Each tuple is serialized compactly on its own line: pretty-printing
// inside tuples would inject whitespace text nodes into their content on
// re-parse, making a restored registry differ from its source.
func (r *Registry) SnapshotWithGen(w io.Writer) (uint64, error) {
	root := xmldoc.NewElement("snapshot")
	root.SetAttr("registry", r.cfg.Name)
	root.SetAttr("at", strconv.FormatInt(r.cfg.Now().UnixMilli(), 10))
	entries, gen := r.store.LiveAndGen()
	root.SetAttr("gen", strconv.FormatUint(gen, 10))
	var sb strings.Builder
	sb.WriteString(strings.TrimSuffix(root.String(), "/>"))
	sb.WriteString(">\n")
	for _, e := range entries {
		sb.WriteString("  ")
		sb.WriteString(e.Value.element().String())
		sb.WriteByte('\n')
	}
	sb.WriteString("</snapshot>\n")
	_, err := io.WriteString(w, sb.String())
	return gen, err
}

// Restore loads a snapshot, publishing each tuple with the remainder of
// its original lifetime. Already-expired tuples are skipped silently;
// malformed or unpublishable tuple elements are skipped and counted, so a
// snapshot with one corrupt entry cannot prevent a warm restart. It
// returns how many tuples were restored and how many were skipped as
// malformed. err is non-nil only when the document itself is unusable.
func (r *Registry) Restore(rd io.Reader) (restored, skipped int, err error) {
	doc, err := xmldoc.Parse(rd)
	if err != nil {
		return 0, 0, fmt.Errorf("registry: restore: %w", err)
	}
	root := doc.DocumentElement()
	if root == nil || root.LocalName() != "snapshot" {
		return 0, 0, fmt.Errorf("registry: restore: expected <snapshot>")
	}
	now := r.cfg.Now()
	for _, el := range root.ChildElements() {
		if el.LocalName() != "tuple" {
			continue
		}
		t, err := tuple.FromXML(el)
		if err != nil {
			skipped++
			continue
		}
		ttl := time.Duration(0)
		if !t.TS3.IsZero() {
			ttl = t.TS3.Sub(now)
			if ttl <= 0 {
				continue // expired while on disk
			}
		}
		// Clear the deadline so Publish re-derives it from the granted ttl.
		t.TS3 = time.Time{}
		if _, err := r.Publish(t, ttl); err != nil {
			skipped++
			continue
		}
		restored++
	}
	return restored, skipped, nil
}
