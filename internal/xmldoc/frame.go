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
// of its root element as byte spans, each the moment its end tag has
// arrived, without building a tree. It runs the scanner Parse is built on
// over everything it reads, so the well-formedness rules are Parse's —
// balanced and matching tags, legal characters and references, MaxDepth —
// and a span it yields is one ParseBytes accepts. It reads with single
// Read calls and never waits to fill its buffer, so a producer that
// flushes per item is consumed per item.
type Framer struct {
	r      io.Reader
	s      scanner
	buf    []byte
	eof    bool
	rooted bool // the root's start tag has been read
	item   int  // offset of the current child's '<', or -1 between children
}

// NewFramer returns a Framer reading from r.
func NewFramer(r io.Reader) *Framer {
	f := &Framer{r: r, buf: make([]byte, 0, 4096), item: -1}
	f.s.init()
	return f
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
// processing instructions before it are skipped. Next calls it if the
// caller has not.
func (f *Framer) Root() (*Node, error) {
	if f.rooted {
		return nil, errors.New("xmldoc: frame: root already read")
	}
	var b builder
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
	if !f.rooted {
		if _, err := f.Root(); err != nil {
			return nil, nil, err
		}
	}
	for {
		tok, err := f.token()
		if err != nil {
			return nil, nil, err
		}
		switch tok.kind {
		case tokEOF:
			return nil, nil, io.EOF
		case tokStart:
			switch f.s.depth() {
			case 1:
				return nil, nil, errors.New("xmldoc: frame: second root element")
			case 2:
				f.item = tok.pos
			}
		case tokEmpty, tokEnd:
			if f.s.depth() == 1 && f.item >= 0 {
				span = f.buf[f.item:f.s.pos]
				f.item = -1
				end := 1
				for end < len(span) && (class[span[end]]&cName != 0 || span[end] >= 0x80) {
					end++
				}
				return span[1+localName(span[1:end]) : end], span, nil
			}
		}
	}
}
