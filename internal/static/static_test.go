package static

import (
	"math/rand"
	"testing"

	"spanners/internal/eval"
	"spanners/internal/reductions"
	"spanners/internal/rgx"
	"spanners/internal/va"
)

func TestSatisfiableBasics(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"a*", true},
		{"x{a*}y{b*}", true},
		{"x{a}x{b}", false}, // x bound twice
		{"x{x{a}}", false},  // self-nesting
		{"(x{a})*", true},   // one iteration works
		{"x{a}|y{b}", true},
	}
	for _, c := range cases {
		a := va.FromRGX(rgx.MustParse(c.expr))
		if got := Satisfiable(a); got != c.want {
			t.Errorf("Satisfiable(%q) = %v, want %v", c.expr, got, c.want)
		}
		if got := SatisfiableRGX(rgx.MustParse(c.expr)); got != c.want {
			t.Errorf("SatisfiableRGX(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestSatisfiableAgainstOneInThreeSAT(t *testing.T) {
	// Theorem 6.1's hard family: satisfiability of the reduction
	// formula must match brute force.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		ins := reductions.RandomOneInThreeSAT(rng, 4, 2+trial%3)
		a := va.FromRGX(ins.ToSpanRGX())
		if got, want := Satisfiable(a), ins.BruteForce(); got != want {
			t.Fatalf("trial %d: Satisfiable = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestSatisfiableSequentialIsReachability(t *testing.T) {
	// A sequential automaton with an unreachable final is
	// unsatisfiable; making it reachable flips the answer.
	a := va.New(3, 0, 2)
	a.AddOpen(0, 1, "x")
	// final 2 unreachable
	if Satisfiable(a) {
		t.Error("unreachable final must be unsatisfiable")
	}
	a.AddClose(1, 2, "x")
	if !Satisfiable(a) {
		t.Error("reachable final must be satisfiable")
	}
}

func TestWitnessDocument(t *testing.T) {
	for _, expr := range []string{"ab*c", "x{a+}b", "x{a}|y{bb}"} {
		n := rgx.MustParse(expr)
		a := va.FromRGX(n)
		d, ok := WitnessDocument(a)
		if !ok {
			t.Fatalf("%q should be satisfiable", expr)
		}
		if eng, err := eval.CompileRGX(n); err != nil || !eng.NonEmpty(d) {
			t.Errorf("witness %q does not satisfy %q", d.Text(), expr)
		}
	}
	if _, ok := WitnessDocument(va.FromRGX(rgx.MustParse("x{a}x{b}"))); ok {
		t.Error("unsatisfiable automaton must yield no witness")
	}
}

func TestContainedRegularLanguages(t *testing.T) {
	cases := []struct {
		left, right string
		want        bool
	}{
		{"ab", "a(b|c)", true},
		{"a(b|c)", "ab", false},
		{"(ab)*", "(a|b)*", true},
		{"(a|b)*", "(ab)*", false},
		{"a", "a", true},
	}
	for _, c := range cases {
		a1 := va.FromRGX(rgx.MustParse(c.left))
		a2 := va.FromRGX(rgx.MustParse(c.right))
		got, cex := Contained(a1, a2)
		if got != c.want {
			t.Errorf("Contained(%q, %q) = %v, want %v (cex: %v)", c.left, c.right, got, c.want, cex)
		}
		if !got && cex != nil {
			// The counterexample must really separate the automata.
			if !a1.Mappings(cex.Doc).Contains(cex.Mapping) {
				t.Errorf("counterexample mapping not produced by left automaton: %v", cex)
			}
			if a2.Mappings(cex.Doc).Contains(cex.Mapping) {
				t.Errorf("counterexample mapping produced by right automaton: %v", cex)
			}
		}
	}
}

func TestContainedWithVariables(t *testing.T) {
	cases := []struct {
		left, right string
		want        bool
	}{
		{"x{a}b", "x{a}(b|c)", true},
		{"x{a}(b|c)", "x{a}b", false},
		{"x{a}", "x{a}|y{a}", true},
		{"x{a}|y{a}", "x{a}", false},
		{"x{ab}", "x{a.}", true},
		{"x{a.}", "x{ab}", false},
		// Shifted capture: same language, different span.
		{"ax{b}", "x{a}b", false},
		// Optional variable on the right covers the left's output.
		{"a", "a|x{a}", true},
		{"a|x{a}", "x{a}", false},
		// Open-never-close on the left acts like no variable at all.
		{"x{.*}|a", "x{.*}|a", true},
	}
	for _, c := range cases {
		a1 := va.FromRGX(rgx.MustParse(c.left))
		a2 := va.FromRGX(rgx.MustParse(c.right))
		got, cex := Contained(a1, a2)
		if got != c.want {
			t.Errorf("Contained(%q, %q) = %v, want %v (cex: %v)", c.left, c.right, got, c.want, cex)
			continue
		}
		if !got {
			if !a1.Mappings(cex.Doc).Contains(cex.Mapping) {
				t.Errorf("cex %v not in left %q", cex, c.left)
			}
			if a2.Mappings(cex.Doc).Contains(cex.Mapping) {
				t.Errorf("cex %v in right %q", cex, c.right)
			}
		}
	}
}

func TestContainedOpenNeverClose(t *testing.T) {
	// Left opens x and never closes: semantically x is unassigned,
	// and the boolean language is "a". Right is plainly "a". The
	// containment must hold in both directions (the normalization
	// step makes the labels comparable).
	left := va.New(3, 0, 2)
	left.AddOpen(0, 1, "x")
	left.AddLetter(1, 2, singleClass('a'))
	right := va.FromRGX(rgx.MustParse("a"))
	if ok, cex := Contained(left, right); !ok {
		t.Errorf("open-never-close left must be contained in plain right (cex: %v)", cex)
	}
	if ok, cex := Contained(right, left); !ok {
		t.Errorf("plain right must be contained in open-never-close left (cex: %v)", cex)
	}
}

func TestContainedDNFReduction(t *testing.T) {
	// Theorem 6.6's family: containment ⇔ DNF validity.
	taut := reductions.Tautology(3)
	a1, a2 := taut.ToContainment()
	if ok, cex := Contained(a1, a2); !ok {
		t.Errorf("tautology instance must be contained (cex: %v)", cex)
	}
	single := reductions.DNF{NumVars: 3, Clauses: [][3]reductions.Literal{
		{{Var: 0}, {Var: 1}, {Var: 2}},
	}}
	b1, b2 := single.ToContainment()
	ok, cex := Contained(b1, b2)
	if ok {
		t.Error("non-valid instance must not be contained")
	} else if cex == nil || cex.Doc.Len() != 0 {
		t.Errorf("counterexample should be over the empty document: %v", cex)
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		f := reductions.RandomDNF(rng, 3, 2)
		c1, c2 := f.ToContainment()
		got, _ := Contained(c1, c2)
		if want := f.BruteForceValid(); got != want {
			t.Fatalf("trial %d: containment = %v, validity = %v", trial, got, want)
		}
	}
}

func TestContainedDetSeqPreconditions(t *testing.T) {
	nondet := va.FromRGX(rgx.MustParse("a|b")) // ε-transitions
	if _, err := ContainedDetSeq(nondet, nondet); err == nil {
		t.Error("nondeterministic input must be rejected")
	}
	// Deterministic but not point-disjoint: adjacent captures.
	adj := va.Determinize(va.FromRGX(rgx.MustParse("x{a}y{b}")))
	if _, err := ContainedDetSeq(adj, adj); err == nil {
		t.Error("non-point-disjoint input must be rejected")
	}
}

func TestContainedDetSeqAgreesWithGeneral(t *testing.T) {
	pairs := [][2]string{
		{"x{a}b(y{c})", "x{a}b(y{c})"},
		{"x{a}b(y{c})", "x{a}.(y{c})"},
		{"x{a}.(y{c})", "x{a}b(y{c})"},
		{"x{a}bc", "x{a}b."},
		{"x{ab}c*", "x{ab}c*|x{ab}d"},
	}
	for _, p := range pairs {
		a1 := va.Determinize(va.FromRGX(rgx.MustParse(p[0]))).Trim()
		a2 := va.Determinize(va.FromRGX(rgx.MustParse(p[1]))).Trim()
		fast, err := ContainedDetSeq(a1, a2)
		if err != nil {
			t.Fatalf("ContainedDetSeq(%q, %q): %v", p[0], p[1], err)
		}
		slow, _ := Contained(a1, a2)
		if fast != slow {
			t.Errorf("disagreement on (%q ⊆ %q): fast=%v slow=%v", p[0], p[1], fast, slow)
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := va.FromRGX(rgx.MustParse("x{a|b}"))
	b := va.FromRGX(rgx.MustParse("x{b|a}"))
	if !Equivalent(a, b) {
		t.Error("commuted disjunction must be equivalent")
	}
	c := va.FromRGX(rgx.MustParse("x{a}"))
	if Equivalent(a, c) {
		t.Error("different languages must not be equivalent")
	}
}

func TestContainedAfterDeterminization(t *testing.T) {
	// Proposition 6.5 + containment: A ≡ det(A).
	for _, expr := range []string{"x{a*}b", "x{a}|y{a}", "(x{a}|b)*"} {
		a := va.FromRGX(rgx.MustParse(expr))
		d := va.Determinize(a)
		if !Equivalent(a, d) {
			t.Errorf("%q: determinization changed the spanner", expr)
		}
	}
}

func singleClass(r rune) (c runeClass) { return runeClassSingle(r) }
