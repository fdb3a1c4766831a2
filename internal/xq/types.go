package xq

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"wsda/internal/xmldoc"
)

// Evaluation of the type operators: instance of, cast as, castable as,
// intersect and except.

func (e *instanceOfExpr) eval(c *evalCtx) (Sequence, error) {
	v, err := e.x.eval(c)
	if err != nil {
		return nil, err
	}
	return Singleton(matchesSeqType(v, e.t)), nil
}

func matchesSeqType(v Sequence, t seqType) bool {
	if t.name == "empty-sequence" {
		return len(v) == 0
	}
	switch t.occurrence {
	case 0:
		if len(v) != 1 {
			return false
		}
	case '?':
		if len(v) > 1 {
			return false
		}
	case '+':
		if len(v) < 1 {
			return false
		}
	case '*':
		// any length
	}
	for _, it := range v {
		if !matchesItemType(it, t.name) {
			return false
		}
	}
	return true
}

func matchesItemType(it Item, name string) bool {
	if name == "item" {
		return true
	}
	n, isNode := it.(*xmldoc.Node)
	switch name {
	case "node":
		return isNode
	case "element":
		return isNode && n.Kind == xmldoc.ElementNode
	case "attribute":
		return isNode && n.Kind == xmldoc.AttributeNode
	case "text":
		return isNode && n.Kind == xmldoc.TextNode
	case "comment":
		return isNode && n.Kind == xmldoc.CommentNode
	case "document-node":
		return isNode && n.Kind == xmldoc.DocumentNode
	}
	if isNode {
		return false
	}
	switch name {
	case "anyAtomicType":
		return true
	case "integer":
		_, ok := it.(int64)
		return ok
	case "decimal", "double", "float":
		switch it.(type) {
		case float64, int64:
			return name != "integer"
		}
		return false
	case "string", "untypedAtomic", "anyURI":
		_, ok := it.(string)
		return ok
	case "boolean":
		_, ok := it.(bool)
		return ok
	}
	return false
}

func (e *castExpr) eval(c *evalCtx) (Sequence, error) {
	v, err := e.x.eval(c)
	if err != nil {
		return nil, err
	}
	v = Atomize(v)
	if len(v) == 0 {
		if e.t.occurrence == '?' {
			if e.castable {
				return Singleton(true), nil
			}
			return Empty, nil
		}
		if e.castable {
			return Singleton(false), nil
		}
		return nil, fmt.Errorf("xq: cannot cast empty sequence to %s", e.t.name)
	}
	if len(v) > 1 {
		if e.castable {
			return Singleton(false), nil
		}
		return nil, fmt.Errorf("xq: cannot cast sequence of %d items", len(v))
	}
	out, err := castAtomic(v[0], e.t.name)
	if e.castable {
		return Singleton(err == nil), nil
	}
	if err != nil {
		return nil, err
	}
	return Singleton(out), nil
}

// castAtomic converts one atomic value to the named xs type.
func castAtomic(it Item, name string) (Item, error) {
	s := strings.TrimSpace(StringValue(it))
	switch name {
	case "string", "untypedAtomic", "anyURI":
		return StringValue(it), nil
	case "integer":
		switch v := it.(type) {
		case int64:
			return v, nil
		case float64:
			return int64(v), nil
		case bool:
			if v {
				return int64(1), nil
			}
			return int64(0), nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			// XPath permits casting decimal strings via truncation only
			// through xs:decimal; a plain integer cast of "1.5" fails.
			return nil, fmt.Errorf("xq: cannot cast %q to xs:integer", s)
		}
		return i, nil
	case "decimal", "double", "float":
		switch v := it.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(v), nil
		case bool:
			if v {
				return 1.0, nil
			}
			return 0.0, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) && s != "NaN" {
			return nil, fmt.Errorf("xq: cannot cast %q to xs:%s", s, name)
		}
		return f, nil
	case "boolean":
		switch v := it.(type) {
		case bool:
			return v, nil
		case int64:
			return v != 0, nil
		case float64:
			return v != 0 && !math.IsNaN(v), nil
		}
		switch s {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		}
		return nil, fmt.Errorf("xq: cannot cast %q to xs:boolean", s)
	}
	return nil, fmt.Errorf("xq: unknown cast target xs:%s", name)
}

func (e *intersectExceptExpr) eval(c *evalCtx) (Sequence, error) {
	lv, err := e.l.eval(c)
	if err != nil {
		return nil, err
	}
	rv, err := e.r.eval(c)
	if err != nil {
		return nil, err
	}
	inRight := make(map[*xmldoc.Node]bool, len(rv))
	for _, it := range rv {
		n, ok := it.(*xmldoc.Node)
		if !ok {
			return nil, fmt.Errorf("xq: intersect/except operand contains non-node %T", it)
		}
		inRight[n] = true
	}
	var out Sequence
	for _, it := range lv {
		n, ok := it.(*xmldoc.Node)
		if !ok {
			return nil, fmt.Errorf("xq: intersect/except operand contains non-node %T", it)
		}
		if inRight[n] == e.intersect {
			out = append(out, n)
		}
	}
	return sortNodesDocOrder(c, out), nil
}

// knownSeqTypeNames are the sequence-type names the parser accepts (with
// or without the xs: prefix for the atomic ones).
var knownSeqTypeNames = map[string]bool{
	"integer": true, "decimal": true, "double": true, "float": true,
	"string": true, "boolean": true, "untypedAtomic": true,
	"anyAtomicType": true, "anyURI": true,
	"item": true, "node": true, "element": true, "attribute": true,
	"text": true, "comment": true, "document-node": true,
	"empty-sequence": true,
}
