package spanners

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// wideUnion is (v00{a}|v01{a}|…) with k alternatives: on the document
// "a" it has exactly k mappings, each assigning one variable.
func wideUnion(k int) string {
	alts := make([]string, k)
	for i := range alts {
		alts[i] = fmt.Sprintf("v%02d{a}", i)
	}
	return "(" + strings.Join(alts, "|") + ")"
}

// wideChain is a sequential expression with k variables over the text
// "abab…": a chain of one-letter captures, every eighth one optional
// so the output set has several mappings, wrapped in .* so it matches
// anywhere.
func wideChain(k int) string {
	var sb strings.Builder
	sb.WriteString(".*(")
	for i := 0; i < k; i++ {
		letter := "a"
		if i%2 == 1 {
			letter = "b"
		}
		if i%8 == 1 {
			fmt.Fprintf(&sb, "(x%02d{%s}|%s)", i, letter, letter)
		} else {
			fmt.Fprintf(&sb, "x%02d{%s}", i, letter)
		}
	}
	sb.WriteString(").*")
	return sb.String()
}

// chainDoc is the k-letter text wideChain(k) matches.
func chainDoc(k int) string { return strings.Repeat("ab", (k+1)/2)[:k] }

// referenceSet is the va.Mappings reference of the expression on text.
func referenceSet(t testing.TB, expr, text string) *span.Set {
	t.Helper()
	return va.FromRGX(rgx.MustParse(expr)).Mappings(NewDocument(text))
}

func setOf(ms []Mapping) *span.Set {
	s := span.NewSet()
	for _, m := range ms {
		s.Add(m)
	}
	return s
}

// TestWideUnionKeepsEveryMapping is the regression test for operations
// dropped at a busy boundary: a 40-alternative union on "a" can fire
// any of 40 opens at position 1, and every one must be enumerated,
// counted and model-checked.
func TestWideUnionKeepsEveryMapping(t *testing.T) {
	const k = 40
	s := MustCompile(wideUnion(k))
	d := NewDocument("a")
	got := s.ExtractAll(d)
	if len(got) != k || setOf(got).Len() != k {
		t.Fatalf("ExtractAll returned %d mappings (%d distinct), want %d", len(got), setOf(got).Len(), k)
	}
	if n := s.Count(d); n != k {
		t.Fatalf("Count = %d, want %d", n, k)
	}
	for i := 0; i < k; i++ {
		m := Mapping{Var(fmt.Sprintf("v%02d", i)): Sp(1, 2)}
		if !s.ModelCheck(d, m) {
			t.Fatalf("ModelCheck rejects %v", m)
		}
	}
	if want := referenceSet(t, wideUnion(k), "a"); !setOf(got).Equal(want) {
		t.Fatalf("ExtractAll disagrees with the reference: %v vs %v", got, want.Mappings())
	}
}

// TestVariableCountBoundary drives spanners with 33 variables (the
// first to use the upper half of each mask word) and with
// program.MaxVars variables (every bit of both words) through artifact round trips, an incremental
// append and the forced FPT engine, all against the va.Mappings
// reference.
func TestVariableCountBoundary(t *testing.T) {
	for _, k := range []int{33, program.MaxVars} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			expr, text := wideChain(k), chainDoc(k)
			s := MustCompile(expr)
			if !s.Sequential() || s.ProgramStats().Vars != k {
				t.Fatalf("want a sequential program over %d variables, got %+v", k, s.ProgramStats())
			}
			d := NewDocument(text)
			want := referenceSet(t, expr, text)
			if want.Len() < 2 {
				t.Fatalf("degenerate corpus: %d mappings", want.Len())
			}
			if got := setOf(s.ExtractAll(d)); !got.Equal(want) {
				t.Fatalf("ExtractAll: %d mappings, reference %d", got.Len(), want.Len())
			}

			art, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCompiledSpanner(art)
			if err != nil {
				t.Fatal(err)
			}
			if got := setOf(loaded.ExtractAll(d)); !got.Equal(want) || loaded.Count(d) != want.Len() {
				t.Fatalf("loaded artifact: %d mappings (Count %d), reference %d", got.Len(), loaded.Count(d), want.Len())
			}

			inc, ok := s.Incremental(text)
			if !ok {
				t.Fatal("sequential spanner refused an incremental session")
			}
			if _, err := inc.Append("ab"); err != nil {
				t.Fatal(err)
			}
			wantAppended := referenceSet(t, expr, text+"ab")
			if got := setOf(inc.Mappings()); !got.Equal(wantAppended) {
				t.Fatalf("after append: %d mappings, reference %d", got.Len(), wantAppended.Len())
			}

			fpt := engineVA(t, s.Automaton())
			fpt.ForceFPT()
			for _, m := range want.Mappings() {
				if !fpt.ModelCheck(d, m) {
					t.Fatalf("forced FPT rejects reference mapping %v", m)
				}
			}
			bad := span.Extended{"x00": span.Assigned(Sp(2, 3))}
			if fpt.Eval(d, bad) {
				t.Fatalf("forced FPT accepts x00 on a b: %v", bad)
			}
		})
	}
}

// TestCompileBudgetRefusal: past program.MaxVars variables every
// constructor refuses with program.ErrBudget instead of degrading.
func TestCompileBudgetRefusal(t *testing.T) {
	over := wideChain(program.MaxVars + 1)
	if _, err := Compile(over); !errors.Is(err, program.ErrBudget) {
		t.Fatalf("Compile: got %v, want program.ErrBudget", err)
	}
	if _, err := FromAutomaton(va.FromRGX(rgx.MustParse(over))); !errors.Is(err, program.ErrBudget) {
		t.Fatalf("FromAutomaton: got %v, want program.ErrBudget", err)
	}
	var rule strings.Builder
	for i := 0; i <= program.MaxVars; i++ {
		fmt.Fprintf(&rule, "<v%02d>", i)
	}
	rule.WriteString(" && v00.(a)")
	if _, err := ParseRule(rule.String()); !errors.Is(err, program.ErrBudget) {
		t.Fatalf("ParseRule: got %v, want program.ErrBudget", err)
	}

	// A join takes the union of its operands' variables: 33 + 32
	// disjoint variables reach 65.
	left := MustCompile(wideUnion(33))
	var alts []string
	for i := 0; i < 32; i++ {
		alts = append(alts, fmt.Sprintf("w%02d{a}", i))
	}
	right := MustCompile(".*(" + strings.Join(alts, "|") + ").*")
	if _, err := Join(left, right); !errors.Is(err, program.ErrBudget) {
		t.Fatalf("Join to 65 variables: got %v, want program.ErrBudget", err)
	}
	if _, err := Union(left, right); !errors.Is(err, program.ErrBudget) {
		t.Fatalf("Union to 65 variables: got %v, want program.ErrBudget", err)
	}
	if u, err := Union(left, MustCompile(wideUnion(2))); err != nil || len(u.Vars()) != 33 {
		t.Fatalf("Union within budget: %v, %v", u, err)
	}
}
