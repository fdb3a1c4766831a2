package xq

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"wsda/internal/xmldoc"
)

// Item is a single item in the XQuery data model: either a node
// (*xmldoc.Node) or an atomic value (string, float64, int64, bool).
type Item any

// Sequence is an ordered sequence of items, the universal value of every
// expression.
type Sequence []Item

// Singleton wraps one item in a sequence.
func Singleton(it Item) Sequence { return Sequence{it} }

// Empty is the empty sequence.
var Empty = Sequence{}

// seqTrue and seqFalse are the two boolean results, shared by every
// expression that yields one; their capacity is 1, so appending to a
// returned result copies it.
var seqTrue, seqFalse = Sequence{true}, Sequence{false}

func boolSeq(b bool) Sequence {
	if b {
		return seqTrue
	}
	return seqFalse
}

// StringValue converts an item to its string value.
func StringValue(it Item) string {
	switch v := it.(type) {
	case *xmldoc.Node:
		return v.StringValue()
	case string:
		return v
	case bool:
		if v {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return formatFloat(v)
	case nil:
		return ""
	default:
		return fmt.Sprint(v)
	}
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// NumberValue converts an item to a float64, returning NaN if it does not
// parse as a number (XPath fn:number semantics).
func NumberValue(it Item) float64 {
	switch v := it.(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case bool:
		if v {
			return 1
		}
		return 0
	default:
		return numberOf(StringValue(it))
	}
}

// numberOf is fn:number of a string: NaN unless it parses as a number.
func numberOf(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// IsNode reports whether the item is a node.
func IsNode(it Item) bool {
	_, ok := it.(*xmldoc.Node)
	return ok
}

// EffectiveBool implements the XPath effective boolean value.
func EffectiveBool(seq Sequence) (bool, error) {
	if len(seq) == 0 {
		return false, nil
	}
	if _, ok := seq[0].(*xmldoc.Node); ok {
		return true, nil
	}
	if len(seq) > 1 {
		return false, fmt.Errorf("xq: effective boolean value of sequence of %d atomic items", len(seq))
	}
	switch v := seq[0].(type) {
	case bool:
		return v, nil
	case string:
		return v != "", nil
	case int64:
		return v != 0, nil
	case float64:
		return v != 0 && !math.IsNaN(v), nil
	default:
		return false, fmt.Errorf("xq: no effective boolean value for %T", seq[0])
	}
}

// Atomize converts a sequence of items to their typed values: nodes become
// their string values (untyped atomics), atomics pass through.
func Atomize(seq Sequence) Sequence {
	out := make(Sequence, len(seq))
	for i, it := range seq {
		out[i] = atomOf(it)
	}
	return out
}

// atomOf is the typed value of one item.
func atomOf(it Item) Item {
	if n, ok := it.(*xmldoc.Node); ok {
		return n.StringValue()
	}
	return it
}

// compareAtomic compares two atomic values with XPath general-comparison
// coercion: if either side is numeric (or both untyped strings that look
// numeric when the other is numeric), compare numerically; booleans compare
// as booleans; otherwise compare as strings. Returns -1, 0, +1.
func compareAtomic(a, b Item) (int, error) {
	if ab, ok := a.(bool); ok {
		bb, err := toBool(b)
		if err != nil {
			return 0, err
		}
		return boolCmp(ab, bb), nil
	}
	if bb, ok := b.(bool); ok {
		ab, err := toBool(a)
		if err != nil {
			return 0, err
		}
		return boolCmp(ab, bb), nil
	}
	if isNumeric(a) || isNumeric(b) {
		return numCmp(NumberValue(a), NumberValue(b)), nil
	}
	sa, sb := StringValue(a), StringValue(b)
	return strings.Compare(sa, sb), nil
}

func toBool(it Item) (bool, error) {
	switch v := it.(type) {
	case bool:
		return v, nil
	case string:
		switch strings.TrimSpace(v) {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		}
		return false, fmt.Errorf("xq: cannot cast %q to boolean", v)
	default:
		return false, fmt.Errorf("xq: cannot compare %T with boolean", it)
	}
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// numCmp is compareAtomic of two numbers: 2 when either is NaN, which
// compares unequal to everything.
func numCmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return 2
}

func isNumeric(it Item) bool {
	switch it.(type) {
	case int64, float64:
		return true
	}
	return false
}

// cmpMask is the set of compareAtomic outcomes each comparison operator,
// general or value, accepts: bit c+1 for outcome c, 2 being NaN's, which
// only != and ne accept. The parser makes no other operator.
var cmpMask = map[string]uint8{
	"=": 2, "!=": 13, "<": 1, "<=": 3, ">": 4, ">=": 6,
	"eq": 2, "ne": 13, "lt": 1, "le": 3, "gt": 4, "ge": 6,
}

// generalCompare implements XPath general comparisons (=, !=, <, <=, >, >=)
// with existential semantics over two sequences.
func generalCompare(op string, left, right Sequence) (bool, error) {
	if len(left) > 1 && len(right) > 1 {
		// The right side is read once per left item: take its element
		// nodes' string values once.
		right = Atomize(right)
	}
	mask := cmpMask[op]
	for _, a := range left {
		a = atomOf(a)
		for _, b := range right {
			c, err := compareAtomic(a, atomOf(b))
			if err != nil {
				return false, err
			}
			if mask>>(c+1)&1 != 0 {
				return true, nil
			}
		}
	}
	return false, nil
}

// valueCompare implements XQuery value comparisons (eq, ne, lt, le, gt, ge)
// on singleton sequences; empty operands yield the empty sequence (nil, no
// error, signalled by the second return).
func valueCompare(op string, left, right Sequence) (Sequence, error) {
	if len(left) == 0 || len(right) == 0 {
		return Empty, nil
	}
	left, right = Atomize(left), Atomize(right)
	if len(left) != 1 || len(right) != 1 {
		return nil, fmt.Errorf("xq: value comparison %s requires singletons", op)
	}
	c, err := compareAtomic(left[0], right[0])
	if err != nil {
		return nil, err
	}
	return boolSeq(cmpMask[op]>>(c+1)&1 != 0), nil
}

// sortNodesDocOrder sorts a node sequence into document order and removes
// duplicates. Mixed sequences are returned unchanged.
func sortNodesDocOrder(c *evalCtx, seq Sequence) Sequence {
	if len(seq) <= 1 {
		return seq
	}
	nodes := make([]*xmldoc.Node, 0, len(seq))
	for _, it := range seq {
		n, ok := it.(*xmldoc.Node)
		if !ok {
			return seq
		}
		nodes = append(nodes, n)
	}
	if c.shared == nil {
		sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Order() < nodes[j].Order() })
	} else {
		c.shared.sortDocOrder(nodes)
	}
	out := make(Sequence, 0, len(nodes))
	var prev *xmldoc.Node
	for _, n := range nodes {
		if n == prev {
			continue
		}
		out = append(out, n)
		prev = n
	}
	return out
}

// DeepEqual reports whether two sequences are deep-equal in the sense of
// fn:deep-equal: same length, pairwise equal atomics and structurally equal
// nodes.
func DeepEqual(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aok := a[i].(*xmldoc.Node)
		bn, bok := b[i].(*xmldoc.Node)
		if aok != bok {
			return false
		}
		if aok {
			if !an.Equal(bn) {
				return false
			}
			continue
		}
		c, err := compareAtomic(a[i], b[i])
		if err != nil || c != 0 {
			return false
		}
	}
	return true
}
