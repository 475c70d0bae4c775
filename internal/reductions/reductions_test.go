package reductions

import (
	"errors"
	"math/rand"
	"testing"

	"spanners/internal/eval"
	"spanners/internal/program"
	"spanners/internal/rules"
	"spanners/internal/span"
	"spanners/internal/va"
)

// mustEngine compiles a into an engine, failing the test on error.
func mustEngine(t testing.TB, a *va.VA) *eval.Engine {
	t.Helper()
	e, err := eval.NewEngine(a)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOneInThreeSATReductionAgrees(t *testing.T) {
	// Theorem 5.2: ⟦γ_α⟧_ε ≠ ∅ iff α has a 1-in-3 assignment.
	rng := rand.New(rand.NewSource(42))
	empty := span.NewDocument("")
	engineRuns := 0
	for trial := 0; trial < 30; trial++ {
		ins := RandomOneInThreeSAT(rng, 4+trial%3, 2+trial%4)
		want := ins.BruteForce()
		got, ran := nonEmpty(t, va.FromRGX(ins.ToSpanRGX()), empty)
		if got != want {
			t.Fatalf("trial %d: reduction = %v, brute force = %v\ninstance: %+v",
				trial, got, want, ins)
		}
		if ran {
			engineRuns++
		}
	}
	if engineRuns == 0 {
		t.Fatal("no instance fit the compiled-program budget; the engine went unchecked")
	}
	t.Logf("engine checked on %d of 30 instances", engineRuns)
}

// nonEmpty decides ⟦a⟧_d ≠ ∅ by the va.Mappings reference run
// semantics and, when a fits the compiled-program budget, checks that
// the engine agrees. The reductions' variable counts grow with the
// instance, so larger instances are refused with program.ErrBudget;
// ran reports whether the engine was checked.
func nonEmpty(t *testing.T, a *va.VA, d *span.Document) (got, ran bool) {
	t.Helper()
	got = a.Mappings(d).Len() > 0
	eng, err := eval.NewEngine(a)
	if errors.Is(err, program.ErrBudget) {
		return got, false
	}
	if err != nil {
		t.Fatal(err)
	}
	if e := eng.NonEmpty(d); e != got {
		t.Fatalf("engine NonEmpty = %v, reference %v", e, got)
	}
	return got, true
}

func TestOneInThreeSATKnownInstances(t *testing.T) {
	// p0 ∨ p1 ∨ p2 alone: satisfiable (set exactly one).
	yes := OneInThreeSAT{NumVars: 3, Clauses: [][3]int{{0, 1, 2}}}
	if !yes.BruteForce() {
		t.Fatal("single clause must be 1-in-3 satisfiable")
	}
	// (p0∨p1∨p2) ∧ (p0∨p1∨p3) ∧ (p2∨p3∨p0) ∧ (p2∨p3∨p1):
	// brute force decides; reduction must agree.
	mixed := OneInThreeSAT{NumVars: 4, Clauses: [][3]int{
		{0, 1, 2}, {0, 1, 3}, {2, 3, 0}, {2, 3, 1},
	}}
	if got, _ := nonEmpty(t, va.FromRGX(mixed.ToSpanRGX()), span.NewDocument("")); got != mixed.BruteForce() {
		t.Fatal("reduction disagrees with brute force on the mixed instance")
	}
}

func TestOneInThreeSATRuleReduction(t *testing.T) {
	// Theorem 5.8: the functional dag-like rule is non-empty on "#"
	// iff the instance is satisfiable.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		ins := RandomOneInThreeSAT(rng, 4, 2)
		r := ins.ToDagRule()
		if !r.IsFunctional() {
			t.Fatalf("reduction rule must be functional: %s", r)
		}
		if !r.IsSimple() {
			t.Fatalf("reduction rule must be simple: %s", r)
		}
		want := ins.BruteForce()
		got, err := rules.NonEmpty(r, ins.RuleDocument())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: rule reduction = %v, brute force = %v\nrule: %s",
				trial, got, want, r)
		}
	}
}

func TestHamiltonianReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	empty := EmptyDocument()
	for trial := 0; trial < 12; trial++ {
		n := 3 + trial%3
		g := RandomDigraph(rng, n, 0.3, trial%2 == 0)
		want := g.BruteForceHamiltonianPath()
		a := g.ToRelationalVA()
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		eng := mustEngine(t, a)
		got := eng.NonEmpty(empty)
		if got != want {
			t.Fatalf("trial %d (n=%d): reduction = %v, brute force = %v\nedges: %v",
				trial, n, got, want, g.Edges)
		}
		// The automaton is relational: when non-empty, every output
		// assigns every vertex variable the span (1,1); the mapping
		// µ_ε model-checks.
		if want {
			mu := span.Mapping{}
			for v := 0; v < n; v++ {
				mu[span.Var("v"+string(rune('0'+v)))] = span.Sp(1, 1)
			}
			if !eng.ModelCheck(empty, mu) {
				t.Fatalf("µ_ε must model-check on a yes instance")
			}
		}
	}
}

func TestHamiltonianLineAndAntiLine(t *testing.T) {
	// A directed line always has a Hamiltonian path; reversing all
	// edges of a line with extra isolated structure does not.
	line := Digraph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	if !line.BruteForceHamiltonianPath() {
		t.Fatal("line must have a Hamiltonian path")
	}
	eng := mustEngine(t, line.ToRelationalVA())
	if !eng.NonEmpty(EmptyDocument()) {
		t.Fatal("reduction must accept the line")
	}
	star := Digraph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}}
	if star.BruteForceHamiltonianPath() {
		t.Fatal("out-star has no Hamiltonian path")
	}
	eng2 := mustEngine(t, star.ToRelationalVA())
	if eng2.NonEmpty(EmptyDocument()) {
		t.Fatal("reduction must reject the out-star")
	}
}

func TestDNFAutomataShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := RandomDNF(rng, 4, 3)
	a1, a2 := f.ToContainment()
	for i, a := range []*struct{ v interface{ Validate() error } }{{a1}, {a2}} {
		if err := a.v.Validate(); err != nil {
			t.Fatalf("automaton %d: %v", i+1, err)
		}
	}
	if !a1.IsDeterministic() || !a2.IsDeterministic() {
		t.Error("reduction automata must be deterministic")
	}
	if !a1.IsSequential() || !a2.IsSequential() {
		t.Error("reduction automata must be sequential")
	}
	// Both accept only the empty document; A1's outputs are all 2^n
	// valuations.
	empty := EmptyDocument()
	m1 := a1.Mappings(empty)
	if m1.Len() != 16 {
		t.Errorf("A1 outputs %d valuations, want 16", m1.Len())
	}
	if a1.Mappings(span.NewDocument("a")).Len() != 0 {
		t.Error("A1 must reject non-empty documents")
	}
	// A2's outputs are a subset of A1's (clause-satisfying ones).
	if !a2.Mappings(empty).SubsetOf(m1) {
		t.Error("A2 outputs must be among A1's valuations")
	}
}

func TestDNFTautologyAndNot(t *testing.T) {
	taut := Tautology(4)
	if !taut.BruteForceValid() {
		t.Fatal("Tautology must be valid")
	}
	single := DNF{NumVars: 3, Clauses: [][3]Literal{{{Var: 0}, {Var: 1}, {Var: 2}}}}
	if single.BruteForceValid() {
		t.Fatal("single clause is not valid")
	}
	// Semantic containment check via the reference run semantics: A1
	// ⊆ A2 on the empty document iff valid (the only relevant
	// document).
	for _, f := range []DNF{taut, single} {
		a1, a2 := f.ToContainment()
		got := a1.Mappings(EmptyDocument()).SubsetOf(a2.Mappings(EmptyDocument()))
		if got != f.BruteForceValid() {
			t.Errorf("containment = %v, validity = %v", got, f.BruteForceValid())
		}
	}
}
