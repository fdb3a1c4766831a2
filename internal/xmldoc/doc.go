// Package xmldoc implements the generic XML data model underlying the WSDA
// tuple space (thesis Ch. 3). Every tuple element holds an arbitrary
// well-formed XML document or fragment; the query engine (internal/xq)
// navigates trees of Node values.
//
// The model is deliberately simple: a Node is a document, element,
// attribute, text, or comment. Namespaces are carried as plain prefixed
// names, which is sufficient for the discovery queries of the thesis.
//
// # Parsing
//
// One hand-written byte-level scanner (scan.go) reads XML for the whole
// tree. Parse, ParseBytes and ParseString build a tree from it; a Framer
// runs it over a stream and hands out the root's children as byte spans
// without building anything. Both therefore accept and reject the same
// input.
//
// Accepted: UTF-8 XML 1.0 — elements, attributes in either quote,
// character data, CDATA sections, comments, processing instructions, an
// XML declaration (version 1.0, encoding UTF-8 or none), DOCTYPE and other
// directives (skipped, internal subset included), the five predefined
// entities and decimal or hexadecimal character references. Line ends are
// normalized (CR LF and CR read as LF) in text, attribute values and
// CDATA. Namespace declarations (xmlns, xmlns:p, and anything that would
// be left named xmlns) are dropped and prefixes are stripped from element
// and attribute names; a repeated attribute name keeps its first position
// and last value. Text, comments and more than one element may stand at
// document level; whitespace-only text there is dropped. Names and data
// that appear verbatim in the input are substrings of one copy of it, so a
// retained node retains its document's text.
//
// Rejected, with an error naming the byte offset: end tags that do not
// match or have no start tag, unclosed elements, constructs cut off by the
// end of input, references to undefined entities or to characters XML does
// not allow, a '<' in an attribute value, "]]>" in text, "--" inside a
// comment, unquoted or valueless attributes, control characters other than
// tab, LF and CR, U+FFFE, U+FFFF, and invalid UTF-8 (in names, text,
// attribute values and CDATA), names that do not start with a letter, '_'
// or ':' or that hold more than one colon or a prefix followed by
// something that is not itself a name, an XML declaration naming another
// version or encoding, and elements nested deeper than MaxDepth
// (ErrTooDeep). Non-ASCII name characters are taken as they come, not held
// to the XML 1.0 name tables.
//
// A Framer additionally refuses to buffer a single child element larger
// than MaxItemBytes (ErrItemTooLarge).
package xmldoc
