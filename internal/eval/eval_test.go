package eval

import (
	"testing"

	"spanners/internal/naive"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

var corpusExprs = []string{
	"",
	"a",
	"a*",
	"x{a}",
	"x{a*}y{b*}",
	"x{a}|b",
	"x{a}|y{b}",
	"(x{a}|b)*",
	"(x{a}|y{b})*",
	"x{(a|b)*}",
	"x{a(y{b})c}",
	"x{a?}b",
	"x{a}x{b}",
	"(a|aa)*",
	"s:x{[^,\\n]*}(,y{[^\\n]*}|)\\n",
	"(x{a})*",
	"x{.*}y{.*}",
}

var corpusDocs = []string{"", "a", "b", "ab", "aab", "aaabbb", "abab", "s:ab,9\n", "s:ab\n"}

func TestAllMatchesNaive(t *testing.T) {
	for _, e := range corpusExprs {
		n := rgx.MustParse(e)
		eng := mustCompileRGX(t, n)
		for _, text := range corpusDocs {
			d := span.NewDocument(text)
			want := naive.Eval(n, d)
			got := eng.All(d)
			if !got.Equal(want) {
				t.Errorf("All(%q) on %q: got %v, want %v (sequential=%v)",
					e, text, got.Mappings(), want.Mappings(), eng.Sequential())
			}
		}
	}
}

func TestSequentialAndFPTAgree(t *testing.T) {
	// Force the FPT path on sequential automata and compare engines.
	for _, e := range corpusExprs {
		n := rgx.MustParse(e)
		fast := mustCompileRGX(t, n)
		if !fast.Sequential() {
			continue
		}
		slow := mustCompileRGX(t, n)
		slow.sequential = false
		for _, text := range corpusDocs {
			d := span.NewDocument(text)
			if !fast.All(d).Equal(slow.All(d)) {
				t.Errorf("engines disagree on %q / %q", e, text)
			}
		}
	}
}

func TestModelCheck(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse("x{a*}y{b*}"))
	d := span.NewDocument("aaabbb")
	if !eng.ModelCheck(d, span.Mapping{"x": span.Sp(1, 4), "y": span.Sp(4, 7)}) {
		t.Error("the unique full parse must model-check")
	}
	if eng.ModelCheck(d, span.Mapping{"x": span.Sp(1, 4)}) {
		t.Error("partial mapping is not a member (y must be assigned here)")
	}
	if eng.ModelCheck(d, span.Mapping{"x": span.Sp(1, 3), "y": span.Sp(4, 7)}) {
		t.Error("wrong span must fail")
	}

	opt := mustCompileRGX(t, rgx.MustParse("x{a*}(y{b+}|)"))
	d2 := span.NewDocument("aa")
	if !opt.ModelCheck(d2, span.Mapping{"x": span.Sp(1, 3)}) {
		t.Error("y legitimately unassigned must model-check")
	}
	if opt.ModelCheck(d2, span.Mapping{"x": span.Sp(1, 3), "y": span.Sp(3, 3)}) {
		t.Error("y cannot be the empty span here (b+ is non-empty)")
	}
}

func TestEvalPartialConstraints(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse("x{a*}y{b*}"))
	d := span.NewDocument("aaabbb")
	// x pinned correctly, y free: extensible.
	if !eng.Eval(d, span.Extended{"x": span.Assigned(span.Sp(1, 4))}) {
		t.Error("correct pin must be extensible")
	}
	// x pinned to a wrong span: not extensible.
	if eng.Eval(d, span.Extended{"x": span.Assigned(span.Sp(2, 4))}) {
		t.Error("wrong pin must fail")
	}
	// y constrained to ⊥: impossible, y is always assigned by this
	// functional formula on this document.
	if eng.Eval(d, span.Extended{"y": span.Unassigned()}) {
		t.Error("⊥ on a mandatory variable must fail")
	}
	// Unknown variable pinned: fails; unknown variable ⊥: fine.
	if eng.Eval(d, span.Extended{"zz": span.Assigned(span.Sp(1, 1))}) {
		t.Error("pinning an unassignable variable must fail")
	}
	if !eng.Eval(d, span.Extended{"zz": span.Unassigned()}) {
		t.Error("⊥ on an unknown variable is vacuous")
	}
	// Out-of-range span: fails cleanly.
	if eng.Eval(d, span.Extended{"x": span.Assigned(span.Sp(1, 99))}) {
		t.Error("invalid span must fail")
	}
}

func TestEvalEmptySpanObligations(t *testing.T) {
	// x{()}a: x is the empty span at position 1; open and close fire
	// at the same boundary.
	eng := mustCompileRGX(t, rgx.MustParse("x{()}a"))
	d := span.NewDocument("a")
	if !eng.Eval(d, span.Extended{"x": span.Assigned(span.Sp(1, 1))}) {
		t.Error("empty-span obligation must be satisfiable")
	}
	if eng.Eval(d, span.Extended{"x": span.Assigned(span.Sp(2, 2))}) {
		t.Error("empty span at the wrong boundary must fail")
	}
}

func TestNonEmpty(t *testing.T) {
	cases := []struct {
		expr, doc string
		want      bool
	}{
		{"x{a*}y{b*}", "aaabbb", true},
		{"x{a*}y{b*}", "ba", false},
		{"x{a}x{b}", "ab", false}, // unsatisfiable formula
		{"a*", "", true},
		// Non-sequential (FPT path): one iteration can bind x, two
		// would re-bind it, so "a" works and "aa" does not.
		{"(x{a})*", "a", true},
		{"(x{a})*", "aa", false},
	}
	for _, c := range cases {
		eng := mustCompileRGX(t, rgx.MustParse(c.expr))
		d := span.NewDocument(c.doc)
		if got := eng.NonEmpty(d); got != c.want {
			t.Errorf("NonEmpty(%q, %q) = %v, want %v", c.expr, c.doc, got, c.want)
		}
	}
}

func TestEnumerateOrderDeterministic(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse("x{a}|y{a}|z{a}"))
	d := span.NewDocument("a")
	var first, second []string
	eng.Enumerate(d, func(m span.Mapping) bool {
		first = append(first, m.Key())
		return true
	})
	eng.Enumerate(d, func(m span.Mapping) bool {
		second = append(second, m.Key())
		return true
	})
	if len(first) != 3 {
		t.Fatalf("got %d mappings: %v", len(first), first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("order not deterministic: %v vs %v", first, second)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse(".*x{a}.*"))
	d := span.NewDocument("aaaaaaaa")
	count := 0
	eng.Enumerate(d, func(m span.Mapping) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop delivered %d mappings", count)
	}
}

func TestEnumerateMatchesAllOnUnion(t *testing.T) {
	// Enumerate and the reference automaton-run semantics agree.
	for _, e := range corpusExprs {
		n := rgx.MustParse(e)
		eng := mustCompileRGX(t, n)
		a := va.FromRGX(n)
		for _, text := range []string{"", "ab", "aaabbb"} {
			d := span.NewDocument(text)
			if !eng.All(d).Equal(a.Mappings(d)) {
				t.Errorf("Enumerate disagrees with run semantics on %q / %q", e, text)
			}
		}
	}
}

func TestVarsAndAutomatonAccessors(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse("x{a}y{b}"))
	vars := eng.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Fatalf("Vars = %v", vars)
	}
	if eng.Automaton() == nil {
		t.Fatal("Automaton accessor broken")
	}
}

func TestSequentialDetection(t *testing.T) {
	if !mustCompileRGX(t, rgx.MustParse("x{a*}y{b*}")).Sequential() {
		t.Error("functional formula should use the sequential engine")
	}
	if mustCompileRGX(t, rgx.MustParse("(x{a})*")).Sequential() {
		t.Error("star over variables cannot use the sequential engine")
	}
}

func TestEvalOnLargeSequentialDocument(t *testing.T) {
	// A smoke test that the sequential path is genuinely cheap: a
	// 20k-letter document with a functional extraction evaluates
	// instantly (the FPT path would also pass but this guards the
	// fast path's plumbing).
	var text []byte
	for i := 0; i < 2000; i++ {
		text = append(text, []byte("s:ab,9\n")...)
	}
	eng := mustCompileRGX(t, rgx.MustParse(".*(s:x{[^,\\n]*},y{[^\\n]*}\\n).*"))
	if !eng.Sequential() {
		t.Fatal("expected sequential engine")
	}
	d := span.NewDocument(string(text))
	if !eng.NonEmpty(d) {
		t.Fatal("expected a match")
	}
	if !eng.Eval(d, span.Extended{"x": span.Assigned(span.Sp(3, 5))}) {
		t.Fatal("first row's name must be extractable")
	}
}
