package xq

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	"wsda/internal/xmldoc"
)

// builtin describes a built-in function.
type builtin struct {
	minArgs int
	maxArgs int // -1 = variadic
	impl    func(c *evalCtx, args []Sequence) (Sequence, error)
}

// builtins is the function library. Names follow the XPath/XQuery core
// function namespace (fn:), written without prefix.
var builtins map[string]*builtin

func init() {
	builtins = map[string]*builtin{
		"true":  {0, 0, func(*evalCtx, []Sequence) (Sequence, error) { return Singleton(true), nil }},
		"false": {0, 0, func(*evalCtx, []Sequence) (Sequence, error) { return Singleton(false), nil }},
		"not": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			b, err := EffectiveBool(a[0])
			if err != nil {
				return nil, err
			}
			return Singleton(!b), nil
		}},
		"boolean": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			b, err := EffectiveBool(a[0])
			if err != nil {
				return nil, err
			}
			return Singleton(b), nil
		}},

		"count": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			return Singleton(int64(len(a[0]))), nil
		}},
		"empty": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			return Singleton(len(a[0]) == 0), nil
		}},
		"exists": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			return Singleton(len(a[0]) > 0), nil
		}},
		"sum": {1, 2, fnSum},
		"avg": {1, 1, func(c *evalCtx, a []Sequence) (Sequence, error) {
			if len(a[0]) == 0 {
				return Empty, nil
			}
			s, err := fnSum(c, a[:1])
			if err != nil {
				return nil, err
			}
			return Singleton(NumberValue(s[0]) / float64(len(a[0]))), nil
		}},
		"min": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) { return fnMinMax(a[0], true) }},
		"max": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) { return fnMinMax(a[0], false) }},
		"number": {0, 1, func(c *evalCtx, a []Sequence) (Sequence, error) {
			it, err := argOrCtx(c, a, 0)
			if err != nil {
				return nil, err
			}
			if it == nil {
				return Singleton(math.NaN()), nil
			}
			return Singleton(NumberValue(it)), nil
		}},
		"round":   {1, 1, fnNum1(func(f float64) float64 { return math.Floor(f + 0.5) })},
		"floor":   {1, 1, fnNum1(math.Floor)},
		"ceiling": {1, 1, fnNum1(math.Ceil)},
		"abs":     {1, 1, fnNum1(math.Abs)},

		"string": {0, 1, func(c *evalCtx, a []Sequence) (Sequence, error) {
			it, err := argOrCtx(c, a, 0)
			if err != nil {
				return nil, err
			}
			if it == nil {
				return Singleton(""), nil
			}
			return Singleton(StringValue(it)), nil
		}},
		"concat": {2, -1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			var sb strings.Builder
			for _, s := range a {
				if len(s) > 1 {
					return nil, fmt.Errorf("xq: concat() argument is a sequence of %d items", len(s))
				}
				if len(s) == 1 {
					sb.WriteString(StringValue(s[0]))
				}
			}
			return Singleton(sb.String()), nil
		}},
		"contains":    {2, 2, fnStr2(strings.Contains)},
		"starts-with": {2, 2, fnStr2(strings.HasPrefix)},
		"ends-with":   {2, 2, fnStr2(strings.HasSuffix)},
		"substring-before": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			s, t := seqString(a[0]), seqString(a[1])
			if i := strings.Index(s, t); i >= 0 {
				return Singleton(s[:i]), nil
			}
			return Singleton(""), nil
		}},
		"substring-after": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			s, t := seqString(a[0]), seqString(a[1])
			if i := strings.Index(s, t); i >= 0 {
				return Singleton(s[i+len(t):]), nil
			}
			return Singleton(""), nil
		}},
		"substring": {2, 3, fnSubstring},
		"string-length": {0, 1, func(c *evalCtx, a []Sequence) (Sequence, error) {
			it, err := argOrCtx(c, a, 0)
			if err != nil {
				return nil, err
			}
			if it == nil {
				return Singleton(int64(0)), nil
			}
			return Singleton(int64(len([]rune(StringValue(it))))), nil
		}},
		"normalize-space": {0, 1, func(c *evalCtx, a []Sequence) (Sequence, error) {
			it, err := argOrCtx(c, a, 0)
			if err != nil {
				return nil, err
			}
			if it == nil {
				return Singleton(""), nil
			}
			return Singleton(strings.Join(strings.Fields(StringValue(it)), " ")), nil
		}},
		"upper-case": {1, 1, fnStr1(strings.ToUpper)},
		"lower-case": {1, 1, fnStr1(strings.ToLower)},
		"translate": {3, 3, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			s, from, to := seqString(a[0]), []rune(seqString(a[1])), []rune(seqString(a[2]))
			var sb strings.Builder
			for _, r := range s {
				idx := -1
				for i, f := range from {
					if f == r {
						idx = i
						break
					}
				}
				if idx < 0 {
					sb.WriteRune(r)
				} else if idx < len(to) {
					sb.WriteRune(to[idx])
				}
			}
			return Singleton(sb.String()), nil
		}},
		"string-join": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			parts := make([]string, len(a[0]))
			for i, it := range Atomize(a[0]) {
				parts[i] = StringValue(it)
			}
			return Singleton(strings.Join(parts, seqString(a[1]))), nil
		}},
		"tokenize": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			re, err := regexp.Compile(seqString(a[1]))
			if err != nil {
				return nil, fmt.Errorf("xq: tokenize: %w", err)
			}
			var out Sequence
			for _, p := range re.Split(seqString(a[0]), -1) {
				out = append(out, p)
			}
			return out, nil
		}},
		"matches": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			re, err := regexp.Compile(seqString(a[1]))
			if err != nil {
				return nil, fmt.Errorf("xq: matches: %w", err)
			}
			return Singleton(re.MatchString(seqString(a[0]))), nil
		}},
		"replace": {3, 3, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			re, err := regexp.Compile(seqString(a[1]))
			if err != nil {
				return nil, fmt.Errorf("xq: replace: %w", err)
			}
			return Singleton(re.ReplaceAllString(seqString(a[0]), seqString(a[2]))), nil
		}},

		"distinct-values": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			// Values are distinct by kind and string value: numerics fold
			// into one kind (1 and 1.0 are one value), "1" and true() stay
			// apart from them and from each other.
			type key struct {
				kind byte
				s    string
			}
			seen := make(map[key]bool)
			var out Sequence
			for _, it := range a[0] {
				it = atomOf(it)
				k := key{s: StringValue(it)}
				switch it.(type) {
				case int64, float64:
					k.kind = 'n'
				case bool:
					k.kind = 'b'
				}
				if !seen[k] {
					seen[k] = true
					out = append(out, it)
				}
			}
			return out, nil
		}},
		"reverse": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			out := make(Sequence, len(a[0]))
			for i, it := range a[0] {
				out[len(a[0])-1-i] = it
			}
			return out, nil
		}},
		"subsequence": {2, 3, fnSubsequence},
		"index-of": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			var out Sequence
			if len(a[1]) != 1 {
				return nil, fmt.Errorf("xq: index-of() needs a singleton search value")
			}
			target := Atomize(a[1])[0]
			for i, it := range Atomize(a[0]) {
				if c, err := compareAtomic(it, target); err == nil && c == 0 {
					out = append(out, int64(i+1))
				}
			}
			return out, nil
		}},
		"insert-before": {3, 3, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			pos := int(NumberValue(Atomize(a[1])[0]))
			if pos < 1 {
				pos = 1
			}
			if pos > len(a[0])+1 {
				pos = len(a[0]) + 1
			}
			out := make(Sequence, 0, len(a[0])+len(a[2]))
			out = append(out, a[0][:pos-1]...)
			out = append(out, a[2]...)
			out = append(out, a[0][pos-1:]...)
			return out, nil
		}},
		"remove": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			pos := int(NumberValue(Atomize(a[1])[0]))
			if pos < 1 || pos > len(a[0]) {
				return a[0], nil
			}
			out := make(Sequence, 0, len(a[0])-1)
			out = append(out, a[0][:pos-1]...)
			out = append(out, a[0][pos:]...)
			return out, nil
		}},
		"deep-equal": {2, 2, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			return Singleton(DeepEqual(a[0], a[1])), nil
		}},
		"zero-or-one": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			if len(a[0]) > 1 {
				return nil, fmt.Errorf("xq: zero-or-one() got %d items", len(a[0]))
			}
			return a[0], nil
		}},
		"exactly-one": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			if len(a[0]) != 1 {
				return nil, fmt.Errorf("xq: exactly-one() got %d items", len(a[0]))
			}
			return a[0], nil
		}},

		"position": {0, 0, func(c *evalCtx, _ []Sequence) (Sequence, error) {
			if c.pos == 0 {
				return nil, fmt.Errorf("xq: position() outside of a context")
			}
			return Singleton(int64(c.pos)), nil
		}},
		"last": {0, 0, func(c *evalCtx, _ []Sequence) (Sequence, error) {
			if c.size == 0 {
				return nil, fmt.Errorf("xq: last() outside of a context")
			}
			return Singleton(int64(c.size)), nil
		}},

		"name":       {0, 1, fnName(func(n *xmldoc.Node) string { return n.Name })},
		"local-name": {0, 1, fnName(func(n *xmldoc.Node) string { return n.LocalName() })},
		"root": {0, 1, func(c *evalCtx, a []Sequence) (Sequence, error) {
			it, err := argOrCtx(c, a, 0)
			if err != nil {
				return nil, err
			}
			n, ok := it.(*xmldoc.Node)
			if !ok {
				return nil, fmt.Errorf("xq: root() requires a node")
			}
			return Singleton(c.rootOf(n)), nil
		}},
		"data": {1, 1, func(_ *evalCtx, a []Sequence) (Sequence, error) {
			return Atomize(a[0]), nil
		}},
	}
}

func fnSum(_ *evalCtx, a []Sequence) (Sequence, error) {
	if len(a[0]) == 0 {
		if len(a) == 2 {
			return a[1], nil
		}
		return Singleton(int64(0)), nil
	}
	allInt := true
	var fi float64
	var ii int64
	for _, it := range Atomize(a[0]) {
		if i, ok := it.(int64); ok {
			ii += i
			fi += float64(i)
			continue
		}
		allInt = false
		f := NumberValue(it)
		if math.IsNaN(f) {
			return nil, fmt.Errorf("xq: sum() over non-numeric value %q", StringValue(it))
		}
		fi += f
	}
	if allInt {
		return Singleton(ii), nil
	}
	return Singleton(fi), nil
}

func fnMinMax(seq Sequence, min bool) (Sequence, error) {
	if len(seq) == 0 {
		return Empty, nil
	}
	atoms := Atomize(seq)
	numeric := true
	for _, it := range atoms {
		if math.IsNaN(NumberValue(it)) {
			numeric = false
			break
		}
	}
	if numeric {
		best := NumberValue(atoms[0])
		for _, it := range atoms[1:] {
			f := NumberValue(it)
			if (min && f < best) || (!min && f > best) {
				best = f
			}
		}
		if best == math.Trunc(best) {
			return Singleton(int64(best)), nil
		}
		return Singleton(best), nil
	}
	strs := make([]string, len(atoms))
	for i, it := range atoms {
		strs[i] = StringValue(it)
	}
	sort.Strings(strs)
	if min {
		return Singleton(strs[0]), nil
	}
	return Singleton(strs[len(strs)-1]), nil
}

func fnSubstring(_ *evalCtx, a []Sequence) (Sequence, error) {
	s := []rune(seqString(a[0]))
	start := NumberValue(Atomize(a[1])[0])
	if math.IsNaN(start) {
		return Singleton(""), nil
	}
	end := float64(len(s)) + 1
	if len(a) == 3 {
		l := NumberValue(Atomize(a[2])[0])
		if math.IsNaN(l) {
			return Singleton(""), nil
		}
		end = math.Floor(start+0.5) + math.Floor(l+0.5)
	}
	lo := int(math.Floor(start + 0.5))
	hi := int(end)
	if lo < 1 {
		lo = 1
	}
	if hi > len(s)+1 {
		hi = len(s) + 1
	}
	if lo >= hi {
		return Singleton(""), nil
	}
	return Singleton(string(s[lo-1 : hi-1])), nil
}

func fnSubsequence(_ *evalCtx, a []Sequence) (Sequence, error) {
	start := int(math.Floor(NumberValue(Atomize(a[1])[0]) + 0.5))
	n := len(a[0])
	end := n + 1
	if len(a) == 3 {
		end = start + int(math.Floor(NumberValue(Atomize(a[2])[0])+0.5))
	}
	if start < 1 {
		start = 1
	}
	if end > n+1 {
		end = n + 1
	}
	if start >= end {
		return Empty, nil
	}
	out := make(Sequence, end-start)
	copy(out, a[0][start-1:end-1])
	return out, nil
}

// fnNum1 lifts a float64 function to a builtin over an optional-empty
// singleton. Integer inputs stay integral for floor/ceiling/round/abs.
func fnNum1(f func(float64) float64) func(*evalCtx, []Sequence) (Sequence, error) {
	return func(_ *evalCtx, a []Sequence) (Sequence, error) {
		if len(a[0]) == 0 {
			return Empty, nil
		}
		at := Atomize(a[0])
		if len(at) != 1 {
			return nil, fmt.Errorf("xq: numeric function on sequence of %d items", len(at))
		}
		if i, ok := at[0].(int64); ok {
			return Singleton(int64(f(float64(i)))), nil
		}
		v := NumberValue(at[0])
		if math.IsNaN(v) {
			return nil, fmt.Errorf("xq: numeric function on non-numeric value %q", StringValue(at[0]))
		}
		return Singleton(f(v)), nil
	}
}

func fnStr1(f func(string) string) func(*evalCtx, []Sequence) (Sequence, error) {
	return func(_ *evalCtx, a []Sequence) (Sequence, error) {
		return Singleton(f(seqString(a[0]))), nil
	}
}

func fnStr2(f func(string, string) bool) func(*evalCtx, []Sequence) (Sequence, error) {
	return func(_ *evalCtx, a []Sequence) (Sequence, error) {
		return Singleton(f(seqString(a[0]), seqString(a[1]))), nil
	}
}

func fnName(get func(*xmldoc.Node) string) func(*evalCtx, []Sequence) (Sequence, error) {
	return func(c *evalCtx, a []Sequence) (Sequence, error) {
		it, err := argOrCtx(c, a, 0)
		if err != nil {
			return nil, err
		}
		if it == nil {
			return Singleton(""), nil
		}
		n, ok := it.(*xmldoc.Node)
		if !ok {
			return nil, fmt.Errorf("xq: name function requires a node, got %T", it)
		}
		return Singleton(get(n)), nil
	}
}

// seqString converts a (possibly empty) singleton sequence to a string.
func seqString(s Sequence) string {
	if len(s) == 0 {
		return ""
	}
	return StringValue(s[0])
}

// errSingleton is a one-item argument's error over n items, raised by the
// interpreter and by number()'s compiled form alike (plan.go).
func errSingleton(n int) error {
	return fmt.Errorf("xq: expected singleton argument, got %d items", n)
}

// argOrCtx returns args[i][0] if present, else the context item (which may
// be nil only when the sequence argument is explicitly empty).
func argOrCtx(c *evalCtx, args []Sequence, i int) (Item, error) {
	if len(args) > i {
		if len(args[i]) == 0 {
			return nil, nil
		}
		if len(args[i]) > 1 {
			return nil, errSingleton(len(args[i]))
		}
		return args[i][0], nil
	}
	if c.item == nil {
		return nil, fmt.Errorf("xq: context item is undefined")
	}
	return c.item, nil
}
