package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) Node {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return n
}

func evalBool(t *testing.T, src string, env Env) bool {
	t.Helper()
	b, err := EvalBool(mustParse(t, src), env)
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", src, err)
	}
	return b
}

func TestParseAndEvalBasics(t *testing.T) {
	env := MapEnv{
		"RC":      Int(0),
		"State_2": Int(-1),
		"name":    String_("alice"),
		"score":   Float(1.5),
		"done":    Bool(true),
		"a.b.c":   Int(7),
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"RC = 0", true},
		{"RC <> 0", false},
		{"State_2 = -1", true},
		{"State_2 < 0", true},
		{"State_2 >= 0", false},
		{"name = \"alice\"", true},
		{"name <> \"bob\"", true},
		{"score > 1", true},
		{"score <= 1.5", true},
		{"done", true},
		{"NOT done", false},
		{"TRUE", true},
		{"FALSE", false},
		{"RC = 0 AND done", true},
		{"RC <> 0 OR done", true},
		{"RC <> 0 OR NOT done", false},
		{"NOT (RC = 0 AND done)", false},
		{"a.b.c = 7", true},
		{"RC = 0 AND State_2 = -1 AND name = \"alice\"", true},
		{"RC = 0 OR State_2 = 0 AND FALSE", true}, // AND binds tighter
		{"(RC = 0 OR State_2 = 0) AND FALSE", false},
		{"RC = 0.0", true}, // int/float coercion
		{"score = 1.5", true},
		{"not done or true", true}, // case-insensitive keywords
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, env); got != c.want {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"RC =",
		"= 0",
		"RC = 0 AND",
		"(RC = 0",
		"RC == 0 0",
		"\"unterminated",
		"RC = 0 extra",
		"a..b = 1",
		"RC ! 0",
		"NOT",
		"- ",
		"\"bad \\q escape\"",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := MapEnv{"n": Int(1), "s": String_("x"), "b": Bool(true)}
	bad := []string{
		"missing = 1", // unknown ref
		"n AND b",     // AND on int
		"NOT n",       // NOT on int
		"n < s",       // int vs string ordering
		"b > b",       // bool ordering
	}
	for _, src := range bad {
		if _, err := EvalBool(mustParse(t, src), env); err == nil {
			t.Errorf("EvalBool(%q) succeeded, want error", src)
		}
	}
	// Non-boolean condition result.
	if _, err := EvalBool(mustParse(t, "n"), env); err == nil {
		t.Error("EvalBool(\"n\") succeeded, want error for LONG condition")
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand references an unknown member; short-circuiting must
	// avoid evaluating it.
	env := MapEnv{"ok": Bool(true), "no": Bool(false)}
	if got := evalBool(t, "ok OR missing = 1", env); !got {
		t.Error("OR short-circuit failed")
	}
	if got := evalBool(t, "no AND missing = 1", env); got {
		t.Error("AND short-circuit failed")
	}
}

func TestStringEscapes(t *testing.T) {
	env := MapEnv{"s": String_("a\"b\n\tc\\d")}
	src := `s = "a\"b\n\tc\\d"`
	if !evalBool(t, src, env) {
		t.Errorf("escape round trip failed for %s", src)
	}
}

func TestCanonicalString(t *testing.T) {
	pairs := map[string]string{
		"RC=0":                       "RC = 0",
		"a = 1 AND b = 2 OR c = 3":   "a = 1 AND b = 2 OR c = 3",
		"a = 1 AND (b = 2 OR c = 3)": "a = 1 AND (b = 2 OR c = 3)",
		"NOT (a = 1)":                "NOT a = 1", // NOT binds a full comparison
		"NOT a":                      "NOT a",
		"((a = 1))":                  "a = 1",
		"x >= -3":                    "x >= -3",
		"s = \"hi\"":                 `s = "hi"`,
	}
	for src, want := range pairs {
		n := mustParse(t, src)
		if got := n.String(); got != want {
			t.Errorf("String(parse(%q)) = %q, want %q", src, got, want)
		}
	}
}

// genNode builds a random expression tree whose leaves reference env
// members, for the print/parse round-trip property.
func genNode(r *rand.Rand, depth int) Node {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &Ref{Path: []string{[]string{"a", "b", "RC", "State_1"}[r.Intn(4)]}}
		case 1:
			return &Lit{Val: Int(int64(r.Intn(21) - 10))}
		case 2:
			return &Lit{Val: Bool(r.Intn(2) == 0)}
		default:
			return &Lit{Val: String_(strings.Repeat("x", r.Intn(3)))}
		}
	}
	switch r.Intn(8) {
	case 0:
		return &Unary{Op: OpNot, X: genBoolNode(r, depth-1)}
	case 1, 2:
		return &Binary{Op: OpAnd, L: genBoolNode(r, depth-1), R: genBoolNode(r, depth-1)}
	case 3, 4:
		return &Binary{Op: OpOr, L: genBoolNode(r, depth-1), R: genBoolNode(r, depth-1)}
	default:
		ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return &Binary{Op: ops[r.Intn(len(ops))], L: genNode(r, 0), R: genNode(r, 0)}
	}
}

func genBoolNode(r *rand.Rand, depth int) Node {
	if depth <= 0 {
		return &Lit{Val: Bool(r.Intn(2) == 0)}
	}
	n := genNode(r, depth)
	// Ensure boolean-typed subtree for NOT/AND/OR operands.
	switch n := n.(type) {
	case *Lit:
		if n.Val.Kind() != KindBool {
			return &Lit{Val: Bool(true)}
		}
	case *Ref:
		return &Lit{Val: Bool(false)}
	}
	return n
}

// TestQuickRoundTrip checks that printing a random tree and re-parsing it
// yields a tree that evaluates identically under a random environment.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := genBoolNode(rr, 4)
		src := n.String()
		n2, err := Parse(src)
		if err != nil {
			t.Logf("re-parse of %q failed: %v", src, err)
			return false
		}
		env := MapEnv{
			"a":       Int(int64(rr.Intn(5) - 2)),
			"b":       Int(int64(rr.Intn(5) - 2)),
			"RC":      Int(int64(rr.Intn(3))),
			"State_1": Int(int64(rr.Intn(3) - 1)),
		}
		v1, err1 := EvalBool(n, env)
		v2, err2 := EvalBool(n2, env)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("eval divergence for %q: %v vs %v", src, err1, err2)
			return false
		}
		if err1 != nil {
			return true // both error: fine
		}
		if v1 != v2 {
			t.Logf("value divergence for %q: %v vs %v", src, v1, v2)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRefs(t *testing.T) {
	n := mustParse(t, "RC = 0 AND a.b <> 1 OR NOT (RC = 2) AND c > a.b")
	refs := Refs(n)
	got := make([]string, len(refs))
	for i, p := range refs {
		got[i] = strings.Join(p, ".")
	}
	want := []string{"RC", "a.b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Refs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Refs = %v, want %v", got, want)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) != Float(3)")
	}
	if Int(3).Equal(String_("3")) {
		t.Error("Int(3) == String(\"3\")")
	}
	if !Null.Equal(Null) {
		t.Error("Null != Null")
	}
	if Null.Equal(Int(0)) {
		t.Error("Null == Int(0)")
	}
	if ZeroOf(KindInt) != Int(0) || ZeroOf(KindString) != String_("") || ZeroOf(KindBool) != Bool(false) {
		t.Error("ZeroOf wrong")
	}
	if _, err := Int(1).Compare(Null); err == nil {
		t.Error("Compare with Null should fail")
	}
	if c, err := String_("a").Compare(String_("b")); err != nil || c != -1 {
		t.Errorf("string compare: %d, %v", c, err)
	}
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindBool} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	if Float(2.5).String() != "2.5" || Int(-4).String() != "-4" || Bool(true).String() != "TRUE" {
		t.Error("Value.String formatting wrong")
	}
}

// TestValueAccessorsRoundTrip: the payload word a Value's kinds share
// (its size is a row of the cost ledger) still gives every accessor what
// the five-field Value gave: the payload of the value's own kind, zero
// otherwise.
func TestValueAccessorsRoundTrip(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if v := Int(i); v.AsInt() != i || v.AsFloat() != float64(i) || v.AsBool() || v.AsString() != "" {
			t.Errorf("Int(%d) reads back as %d / %g / %v", i, v.AsInt(), v.AsFloat(), v.AsBool())
		}
	}
	for _, f := range []float64{0, -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)} {
		if v := Float(f); v.AsFloat() != f || v.AsInt() != 0 || v.AsBool() {
			t.Errorf("Float(%g) reads back as %g / %d / %v", f, v.AsFloat(), v.AsInt(), v.AsBool())
		}
	}
	if v := Float(math.NaN()); !math.IsNaN(v.AsFloat()) {
		t.Errorf("Float(NaN) reads back as %g", v.AsFloat())
	}
	for _, b := range []bool{false, true} {
		if v := Bool(b); v.AsBool() != b || v.AsInt() != 0 {
			t.Errorf("Bool(%v) reads back as %v / %d", b, v.AsBool(), v.AsInt())
		}
	}
	if v := String_("x"); v.AsString() != "x" || v.AsInt() != 0 || v.AsFloat() != 0 || v.AsBool() {
		t.Errorf("String_ payload leaks into another accessor: %d / %g / %v", v.AsInt(), v.AsFloat(), v.AsBool())
	}
}
