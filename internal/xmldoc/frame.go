package xmldoc

import (
	"errors"
	"fmt"
	"io"
)

// MaxItemBytes is the largest child element (or other single piece of
// markup) a Framer buffers. It sits far above anything the discovery
// binding produces (queries are capped at 1 MiB, tuples are a few KiB);
// it exists so that a hostile stream cannot make its reader buffer
// without bound.
const MaxItemBytes = 16 << 20

// ErrItemTooLarge is returned by a Framer for a child element larger than
// MaxItemBytes; compare with errors.Is.
var ErrItemTooLarge = fmt.Errorf("xmldoc: frame: element larger than %d bytes", MaxItemBytes)

// Framer reads one XML document incrementally and hands out the children
// of its root element, each the moment its end tag has arrived: as byte
// spans (Next), without building a tree, or as trees (NextTree). It runs
// the scanner Parse is built on over everything it reads, so the
// well-formedness rules are Parse's — balanced and matching tags, legal
// characters and references, MaxDepth — and a span it yields is one
// ParseBytes accepts. For Next, once a child has opened, the scanner runs
// to its end tag without handing back a token per tag or attribute,
// stopping only where the buffer runs out or the input is malformed. It
// reads with single Read calls and never waits to fill its buffer, so a
// producer that flushes per item is consumed per item.
type Framer struct {
	r      io.Reader
	s      scanner
	buf    []byte
	eof    bool
	rooted bool // the root's start tag has been read
	item   int  // offset of the current child's '<', or -1 between children

	// NextTree's state, kept from child to child: the current child's
	// tokens, the builder that turns them into its tree, and the node that
	// stands in for the child's document node while it is built.
	toks []itemTok
	b    builder
	doc  Node

	attrs scanner // Attrs' own, beside the one reading the document
}

// itemTok is a token of the child NextTree is reading, with its offsets
// counted from the child's first byte, so that they hold while the buffer
// slides or grows under it.
type itemTok struct {
	kind       tokKind
	esc        bool
	a, b, c, d int32
}

// Limits on the buffers Reset keeps for the next document: a Framer that
// once read a huge child does not hold on to its memory.
const (
	keptBuffer = 64 << 10
	keptTokens = 4 << 10
)

// NewFramer returns a Framer reading from r.
func NewFramer(r io.Reader) *Framer {
	f := &Framer{}
	f.Reset(r)
	return f
}

// Reset readies f to read a new document from r, as NewFramer(r) would.
// It keeps f's buffers, up to a bound, and nothing else: no tree NextTree
// built and no byte it returned is referred to by f after Reset, so a
// Framer can be pooled. Reset(nil) lets go of the reader.
func (f *Framer) Reset(r io.Reader) {
	buf, toks, scratch := f.buf[:0], f.toks[:0], f.b.scratch[:0]
	if cap(buf) > keptBuffer {
		buf = nil
	}
	if buf == nil && r != nil {
		buf = make([]byte, 0, 4096)
	}
	if cap(toks) > keptTokens {
		toks = nil
	}
	if cap(scratch) > keptBuffer {
		scratch = nil
	}
	*f = Framer{r: r, buf: buf, item: -1, toks: toks}
	f.s.init()
	f.b.scratch = scratch
}

// token returns the scanner's next token, reading more input as needed.
func (f *Framer) token() (token, error) {
	for {
		tok := f.s.next(f.buf, f.eof)
		switch tok.kind {
		case tokError:
			return tok, f.s.err
		case tokMore:
			if err := f.fill(); err != nil {
				return tok, err
			}
		default:
			return tok, nil
		}
	}
}

// fill makes room and reads once. Bytes the scanner and the current child
// no longer need are dropped by sliding the rest down; when they fill the
// buffer it doubles, up to MaxItemBytes.
func (f *Framer) fill() error {
	keep := f.s.held()
	if f.item >= 0 {
		keep = f.item
	}
	switch full := len(f.buf) == cap(f.buf); {
	case keep == len(f.buf), full && keep >= cap(f.buf)/2, full && keep > 0 && cap(f.buf) == MaxItemBytes:
		f.buf = f.buf[:copy(f.buf, f.buf[keep:])]
		f.drop(keep)
	case full && cap(f.buf) == MaxItemBytes:
		return ErrItemTooLarge
	case full:
		grown := make([]byte, len(f.buf)-keep, min(2*cap(f.buf), MaxItemBytes))
		copy(grown, f.buf[keep:])
		f.buf = grown
		f.drop(keep)
	}
	for tries := 0; tries < 100; tries++ {
		n, err := f.r.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf = f.buf[:len(f.buf)+n]
		if err == io.EOF {
			f.eof = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("xmldoc: frame: %w", err)
		}
		if n > 0 {
			return nil
		}
	}
	return fmt.Errorf("xmldoc: frame: %w", io.ErrNoProgress)
}

// drop accounts for n bytes removed from the front of the buffer.
func (f *Framer) drop(n int) {
	f.s.rebase(n)
	if f.item >= 0 {
		f.item -= n
	}
}

// Root reads up to the end of the root element's start tag and returns the
// root as a childless element carrying its attributes. Text, comments and
// processing instructions before it are skipped. Next and NextTree call it
// if the caller has not.
func (f *Framer) Root() (*Node, error) {
	if f.rooted {
		return nil, errors.New("xmldoc: frame: root already read")
	}
	b := &f.b
	b.init("", 0)
	for {
		tok, err := f.token()
		if err != nil {
			return nil, err
		}
		switch tok.kind {
		case tokEOF:
			return nil, fmt.Errorf("xmldoc: frame: no root element: %w", io.ErrUnexpectedEOF)
		case tokStart, tokAttr:
			b.add(tok, f.buf)
		case tokOpen, tokEmpty:
			b.closeStartTag()
			f.rooted = true
			root := b.open[1]
			root.Parent = nil
			return root, nil
		}
	}
}

// Next returns the next child element of the root: its local name and its
// complete bytes, start tag to end tag. Both alias the Framer's buffer and
// are valid until the next call. Text, comments and processing
// instructions between children are checked and skipped. After the root's
// end tag Next reads to the end of input — anything but another element
// may follow — and returns io.EOF; input that ends earlier is an error, as
// is any malformed input, and no error is ever followed by a span.
func (f *Framer) Next() (name, span []byte, err error) {
	if span, err = f.child(false); err != nil {
		return nil, nil, err
	}
	end := 1
	for end < len(span) && (class[span[end]]&cName != 0 || span[end] >= 0x80) {
		end++
	}
	return span[1+localName(span[1:end]) : end], span, nil
}

// NextTree is Next for a reader that wants trees: it returns the next
// child element of the root as the document element ParseBytes would
// build from its span — the same names, data, attributes, children and
// document order, counted from 1 — but detached: its Parent is nil. The
// scanner's tokens go to a builder as the child is read, so its bytes are
// scanned once. Names and data are substrings of one copy of the span,
// and nodes are carved from chunks shared with the children before and
// after it (each child's lists are capped, so appending to one never
// touches another). The tree is the caller's own; errors are Next's.
func (f *Framer) NextTree() (*Node, error) {
	span, err := f.child(true)
	if err != nil {
		return nil, err
	}
	return f.b.item(&f.doc, span, f.toks, len(span)+len(f.buf)-f.s.pos), nil
}

// Attrs calls visit with the local name and the value of each attribute
// of span's start tag, span a child Next returned, as NextTree's tree of it
// would hold them (namespace declarations dropped; a repeated attribute is
// visited again): for the odd child a skimming reader reads without a
// tree. The span was checked when it was framed; its start tag is scanned
// again. name is valid until visit returns.
func (f *Framer) Attrs(span []byte, visit func(name []byte, value string)) {
	s := &f.attrs
	*s = scanner{}
	s.init()
	f.b.text = "" // value copies what it returns
	for tok := s.next(span, true); tok.kind == tokStart || tok.kind == tokAttr; tok = s.next(span, true) {
		name := span[tok.a:tok.b]
		i := localName(name)
		if tok.kind == tokAttr && string(name[i:]) != "xmlns" && (i != 6 || string(name[:5]) != "xmlns") {
			visit(name[i:], f.b.value(span, tok.c, tok.d, tok.esc, true))
		}
	}
}

// child reads up to the end tag of the root's next child and returns its
// span; with tree set it keeps the child's tokens in toks, where Next
// skims.
func (f *Framer) child(tree bool) ([]byte, error) {
	if !f.rooted {
		if _, err := f.Root(); err != nil {
			return nil, err
		}
	}
	for {
		tok, err := f.token()
		if err != nil {
			return nil, err
		}
		switch {
		case tok.kind == tokEOF:
			return nil, io.EOF
		case tok.kind == tokStart && f.s.depth() == 1:
			return nil, errors.New("xmldoc: frame: second root element")
		case tok.kind == tokStart && f.s.depth() == 2:
			f.item, f.toks = tok.pos, f.toks[:0]
			if !tree {
				f.s.skim = 2
			}
		case f.item < 0:
			continue // between children
		}
		if tree {
			at := f.item
			f.toks = append(f.toks, itemTok{tok.kind, tok.esc, int32(tok.a - at), int32(tok.b - at), int32(tok.c - at), int32(tok.d - at)})
		}
		if (tok.kind == tokEmpty || tok.kind == tokEnd) && f.s.depth() == 1 {
			span := f.buf[f.item:f.s.pos]
			f.item, f.s.skim = -1, 0
			return span, nil
		}
	}
}
