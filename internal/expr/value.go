package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

// The possible kinds of a Value.
const (
	KindNull Kind = iota // absent / uninitialized
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the FDL type name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "LONG"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar manipulated by the expression
// evaluator and stored in container members. The zero Value is Null. It is
// 32 bytes, pinned by a test (containers, WAL records and replay copy whole
// vectors): n holds the integer, the float's IEEE bits, or 0/1 for a boolean.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null is the absent value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String_ returns a string value. (Named with a trailing underscore because
// Value already has a String method implementing fmt.Stringer.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it is only meaningful when Kind is
// KindInt (0 for every other kind).
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// AsFloat returns the float payload, converting from an integer payload if
// necessary; it is only meaningful for the two numeric kinds.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(int64(v.n))
	}
	return math.Float64frombits(v.n)
}

// AsString returns the string payload; it is only meaningful when Kind is
// KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload; it is only meaningful when Kind is
// KindBool (false for every other kind).
func (v Value) AsBool() bool { return v.kind == KindBool && v.n != 0 }

// String renders the value as an FDL literal. String values are quoted
// using exactly the escapes the condition lexer understands (\" \\ \n \t);
// all other bytes pass through raw, so the output always re-parses.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		s := strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
		// Keep the literal float-typed on re-parse: "2" or "-0" would come
		// back as integers.
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && s != "NaN" {
			s += ".0"
		}
		return s
	case KindString:
		return quoteString(v.s)
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// quoteString renders s as a double-quoted condition-language string
// literal using only the escapes the lexer accepts.
func quoteString(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// Equal reports deep equality of two values, with int/float numeric
// coercion (Int(1) equals Float(1.0)).
func (v Value) Equal(o Value) bool {
	if v.isNumeric() && o.isNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.n == o.n
		}
		return v.AsFloat() == o.AsFloat()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.n == o.n
	default:
		return false
	}
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values: -1, 0, +1. It returns an error when the values
// are not mutually ordered (e.g. a string against an int, or any null).
func (v Value) Compare(o Value) (int, error) {
	if v.isNumeric() && o.isNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind == KindString && o.kind == KindString {
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("expr: cannot compare %s with %s", v.kind, o.kind)
}

// ZeroOf returns the default value for a kind: 0, 0.0, "", FALSE.
func ZeroOf(k Kind) Value {
	switch k {
	case KindInt:
		return Int(0)
	case KindFloat:
		return Float(0)
	case KindString:
		return String_("")
	case KindBool:
		return Bool(false)
	default:
		return Null
	}
}

// Env resolves identifier paths to values during evaluation. Data
// containers implement Env.
type Env interface {
	// Lookup resolves a dotted member path such as ["order", "total"].
	// It reports false when the path does not exist.
	Lookup(path []string) (Value, bool)
}

// MapEnv is a simple Env backed by a map from the joined dotted path to a
// value; convenient in tests.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(path []string) (Value, bool) {
	v, ok := m[joinPath(path)]
	return v, ok
}

func joinPath(path []string) string {
	switch len(path) {
	case 0:
		return ""
	case 1:
		return path[0]
	}
	n := len(path) - 1
	for _, p := range path {
		n += len(p)
	}
	b := make([]byte, 0, n)
	for i, p := range path {
		if i > 0 {
			b = append(b, '.')
		}
		b = append(b, p...)
	}
	return string(b)
}
