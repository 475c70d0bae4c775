package rules

import (
	"strings"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/span"
)

func doc(text string) *span.Document { return span.NewDocument(text) }

func TestParseAndString(t *testing.T) {
	r := MustParse("a*<x>b* && x.(ab*) && y.(<z>a)")
	if len(r.Conjuncts) != 2 {
		t.Fatalf("conjuncts = %d", len(r.Conjuncts))
	}
	if r.Conjuncts[0].Var != "x" || r.Conjuncts[1].Var != "y" {
		t.Fatalf("vars = %v", r.Conjuncts)
	}
	// String must re-parse to the same rule.
	back := MustParse(r.String())
	if back.String() != r.String() {
		t.Errorf("round trip: %q vs %q", r.String(), back.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"<x> && x.ab",      // body not parenthesized
		"<x> && .(ab)",     // missing variable
		"<x> && x y.(ab)",  // junk variable
		"<x> && x.(x{ab})", // shaped capture: not a spanRGX
		"<",                // malformed shorthand
		"<x",               // malformed shorthand
		"<1x>",             // shorthand must be an identifier... digits allowed mid-name only
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestValidateRejectsShapedCaptures(t *testing.T) {
	r := &Rule{Doc: rgx.MustParse("x{a*}")}
	if err := r.Validate(); err == nil {
		t.Error("shaped capture in doc formula must be rejected")
	}
}

func TestClassification(t *testing.T) {
	simple := MustParse("<x> && x.(a<y>) && y.(b)")
	if !simple.IsSimple() || !IsDagLike(simple) || !IsTreeLike(simple) {
		t.Error("chain rule should be simple, dag-like and tree-like")
	}

	nonSimple := MustParse("<x> && x.(.*<y>.*) && x.(.*<z>.*)")
	if nonSimple.IsSimple() {
		t.Error("repeated conjunct variable is not simple")
	}

	dagNotTree := MustParse("<x>(<y>) && x.(a<z>) && y.(<z>b) && z.(.*)")
	if !IsDagLike(dagNotTree) {
		t.Error("z with two parents is still dag-like")
	}
	if IsTreeLike(dagNotTree) {
		t.Error("z with two parents is not tree-like")
	}

	cyclic := MustParse("<x> && x.(<y>) && y.(a<x>)")
	if IsDagLike(cyclic) {
		t.Error("x↔y cycle is not dag-like")
	}
}

func TestGraphSCCs(t *testing.T) {
	r := MustParse("<x> && x.(<y>) && y.(<x>a|<x>) && z.(b)").Normalize()
	g := BuildGraph(r)
	sccs := g.TopoSCCs()
	// Expected components: {doc}, {x,y}, ({z} unreachable but still a node).
	var big []span.Var
	for _, scc := range sccs {
		if len(scc) > 1 {
			big = scc
		}
	}
	if len(big) != 2 {
		t.Fatalf("SCCs = %v", sccs)
	}
	if !g.HasCycle() {
		t.Error("cycle not detected")
	}
}

func TestEvalNondeterministicChoice(t *testing.T) {
	// The Section 3.3 example: (x|y) ∧ x.(ab*) ∧ y.(ba*). On "abb"
	// only the x-branch satisfies its constraint; y stays unassigned.
	r := MustParse("(<x>|<y>) && x.(ab*) && y.(ba*)")
	got := mustEval(t, r, doc("abb"))
	want := span.Mapping{"x": span.Sp(1, 4)}
	if got.Len() != 1 || !got.Contains(want) {
		t.Fatalf("got %v, want only %v", got.Mappings(), want)
	}
	// On "baa" the roles flip.
	got = mustEval(t, r, doc("baa"))
	want = span.Mapping{"y": span.Sp(1, 4)}
	if got.Len() != 1 || !got.Contains(want) {
		t.Fatalf("got %v, want only %v", got.Mappings(), want)
	}
}

func TestEvalUninstantiatedConjunctIsVacuous(t *testing.T) {
	// y never instantiated: its impossible constraint never fires.
	r := MustParse("<x> && x.(a*) && y.(ab)")
	got := mustEval(t, r, doc("aa"))
	if got.Len() != 1 || !got.Contains(span.Mapping{"x": span.Sp(1, 3)}) {
		t.Fatalf("got %v", got.Mappings())
	}
}

func TestEvalNonHierarchicalOverlap(t *testing.T) {
	// Theorem 4.6: x ∧ x.(Σ*yΣ*) ∧ x.(Σ*zΣ*) can overlap y and z
	// non-hierarchically — beyond any RGX.
	r := MustParse("<x> && x.(.*<y>.*) && x.(.*<z>.*)")
	got := mustEval(t, r, doc("aaaa"))
	overlap := span.Mapping{"x": span.Sp(1, 5), "y": span.Sp(1, 3), "z": span.Sp(2, 4)}
	if !got.Contains(overlap) {
		t.Fatalf("missing overlapping mapping %v", overlap)
	}
	if got.Hierarchical() {
		t.Error("rule output should include non-hierarchical mappings")
	}
}

func TestEvalEqualityThroughConjunct(t *testing.T) {
	// x.(y) forces span(y) = span(x) exactly.
	r := MustParse("a<x>b && x.(<y>)")
	got := mustEval(t, r, doc("acb"))
	want := span.Mapping{"x": span.Sp(2, 3), "y": span.Sp(2, 3)}
	if got.Len() != 1 || !got.Contains(want) {
		t.Fatalf("got %v", got.Mappings())
	}
}

func TestEvalCyclicUnsat(t *testing.T) {
	// x ∧ x.y ∧ y.ax: forces |x| = |y| and |y| = |x|+1.
	r := MustParse("<x> && x.(<y>) && y.(a<x>)")
	for _, text := range []string{"", "a", "aa", "aaa"} {
		if got := mustEval(t, r, doc(text)); got.Len() != 0 {
			t.Fatalf("cyclic rule satisfied on %q: %v", text, got.Mappings())
		}
	}
}

func TestEvalUnionSemantics(t *testing.T) {
	u := Union{
		MustParse("<x> && x.(a*)"),
		MustParse("<y> && y.(b*)"),
	}
	got := mustEvalUnion(t, u, doc("aa"))
	if !got.Contains(span.Mapping{"x": span.Sp(1, 3)}) {
		t.Errorf("missing x mapping: %v", got.Mappings())
	}
	got = mustEvalUnion(t, u, doc("bb"))
	if !got.Contains(span.Mapping{"y": span.Sp(1, 3)}) {
		t.Errorf("missing y mapping: %v", got.Mappings())
	}
}

func TestNormalizeAddsMissingConjuncts(t *testing.T) {
	r := MustParse("<x><y> && x.(a)")
	n := r.Normalize()
	if n.ConjunctFor("y") == nil {
		t.Fatal("Normalize must add y.Σ*")
	}
	// Semantics unchanged.
	for _, text := range []string{"", "a", "ab"} {
		if !mustEval(t, r, doc(text)).Equal(mustEval(t, n, doc(text))) {
			t.Errorf("Normalize changed semantics on %q", text)
		}
	}
}

func TestRemoveUnreachable(t *testing.T) {
	r := MustParse("<x> && x.(a*) && y.(ab)")
	rm := RemoveUnreachable(r.Normalize())
	if rm.ConjunctFor("y") != nil {
		t.Fatal("unreachable conjunct must be dropped")
	}
	for _, text := range []string{"", "a", "ab"} {
		if !mustEval(t, r, doc(text)).Equal(mustEval(t, rm, doc(text))) {
			t.Errorf("RemoveUnreachable changed semantics on %q", text)
		}
	}
}

func TestNuFunction(t *testing.T) {
	cases := []struct {
		in   string
		want string // "" means H
	}{
		{"a", ""},
		{"a*", "()"},
		{"<x>", "x{.*}"},
		{"a<x>b*", ""},
		{"a*<x>b*", "x{.*}"},
		{"(a|b)", ""},
		{"(a|<x>)", "x{.*}"},
		{"<x><y>", "x{.*}y{.*}"},
	}
	for _, c := range cases {
		n, err := parseSpanExpr(c.in)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := Nu(n)
		if c.want == "" {
			if ok {
				t.Errorf("Nu(%q) = %v, want H", c.in, got)
			}
			continue
		}
		if !ok || got.String() != c.want {
			t.Errorf("Nu(%q) = %v (%v), want %q", c.in, got, ok, c.want)
		}
	}
}

func TestColoring(t *testing.T) {
	// y's content must contain a letter: black. x reaches y: red.
	r := MustParse("<x> && x.(<y>) && y.(a<z>) && z.(b*)").Normalize()
	g := BuildGraph(r)
	c := Color(r, g)
	if !c.Black["y"] {
		t.Error("y must be black")
	}
	if c.Black["x"] || c.Black["z"] {
		t.Error("x, z must not be black")
	}
	if !c.Red["x"] || !c.Red["y"] {
		t.Error("x and y must be red")
	}
	if c.Red["z"] {
		t.Error("z must be green")
	}
}

func TestForceHelpers(t *testing.T) {
	e, err := parseSpanExpr("a<z>b*")
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := ForceRight(e, "z")
	if !ok || fr.String() != "a(z{.*})" {
		t.Errorf("ForceRight = %v (%v)", fr, ok)
	}
	// Left of z is a mandatory letter: ForceLeft must fail.
	if _, ok := ForceLeft(e, "z"); ok {
		t.Error("mandatory letter left of z cannot be forced")
	}
	eL, _ := parseSpanExpr("a*<z>b")
	fl, ok := ForceLeft(eL, "z")
	if !ok || fl.String() != "z{.*}b" {
		t.Errorf("ForceLeft = %v (%v)", fl, ok)
	}
	// A mandatory letter on the forced side kills it.
	e2, _ := parseSpanExpr("a<z>b")
	if _, ok := ForceRight(e2, "z"); ok {
		t.Error("mandatory letter right of z cannot be forced")
	}

	// ForceBetween splits by orientation.
	e3, _ := parseSpanExpr("<x>.*<y>|<y>b*<x>")
	ab, ba := ForceBetween(e3, "x", "y")
	if ab == nil || ba == nil {
		t.Fatalf("ForceBetween = %v / %v", ab, ba)
	}
	if ab.String() != "x{.*}y{.*}" {
		t.Errorf("x-first = %v", ab)
	}
	if ba.String() != "y{.*}x{.*}" {
		t.Errorf("y-first = %v", ba)
	}
}

func TestUnsatRuleIsUnsat(t *testing.T) {
	r := UnsatRule()
	if !IsDagLike(r) || !r.IsFunctional() {
		t.Fatal("UnsatRule must be functional dag-like")
	}
	for _, text := range []string{"", "a", "aa", "ab", "aaa"} {
		if got := mustEval(t, r, doc(text)); got.Len() != 0 {
			t.Fatalf("UnsatRule satisfied on %q: %v", text, got.Mappings())
		}
	}
}

// stripAux removes auxiliary variables from every mapping of a set,
// for equivalence-modulo-aux comparisons.
func stripAux(s *span.Set) *span.Set {
	out := span.NewSet()
	for _, m := range s.Mappings() {
		clean := make(span.Mapping)
		for v, sp := range m {
			if !IsAuxVar(v) {
				clean[v] = sp
			}
		}
		out.Add(clean)
	}
	return out
}

func TestEliminateCyclesPaperExample(t *testing.T) {
	// doc = x, x.y ∧ y.z ∧ z.(u·x): the three-cycle with tail u.
	r := MustParse("<x> && x.(<y>) && y.(<z>) && z.(<u><x>)")
	dag, err := EliminateCycles(r)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDagLike(dag) {
		t.Fatalf("result not dag-like:\n%s", dag)
	}
	if !dag.IsFunctional() {
		t.Fatalf("result not functional:\n%s", dag)
	}
	for _, text := range []string{"", "a", "ab", "abc"} {
		want := mustEval(t, r, doc(text))
		got := stripAux(mustEval(t, dag, doc(text)))
		if !got.Equal(want) {
			t.Errorf("on %q: got %v, want %v\nrule: %s", text, got.Mappings(), want.Mappings(), dag)
		}
	}
}

func TestEliminateCyclesRedCycle(t *testing.T) {
	// x.y ∧ y.(a x): the successor must be strictly smaller — red.
	r := MustParse("<x> && x.(<y>) && y.(a<x>)")
	_, err := EliminateCycles(r)
	if err != ErrUnsatisfiable {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestEliminateCyclesSelfLoop(t *testing.T) {
	r := MustParse("<x> && x.(a*<x>b*)")
	_, err := EliminateCycles(r)
	if err != ErrUnsatisfiable {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestEliminateCyclesGreenTwoCycle(t *testing.T) {
	// x.y ∧ y.(x | Σ*): green cycle; x = y always.
	r := MustParse("a*<x>b* && x.(<y>) && y.(<x>|.*)")
	// Not functional ((x|Σ*) binds x in one branch only): the theorem
	// requires functional rules.
	if _, err := EliminateCycles(r); err != ErrNotFunctional {
		t.Fatalf("err = %v, want ErrNotFunctional", err)
	}

	// The functional variant x.y ∧ y.x.
	r2 := MustParse("a*<x>b* && x.(<y>) && y.(<x>)")
	dag, err := EliminateCycles(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDagLike(dag) {
		t.Fatalf("not dag-like:\n%s", dag)
	}
	for _, text := range []string{"", "a", "ab", "aab"} {
		want := mustEval(t, r2, doc(text))
		got := stripAux(mustEval(t, dag, doc(text)))
		if !got.Equal(want) {
			t.Errorf("on %q: got %v, want %v\nrule: %s", text, got.Mappings(), want.Mappings(), dag)
		}
	}
}

func TestEliminateCyclesAcyclicPassThrough(t *testing.T) {
	r := MustParse("<x> && x.(a<y>) && y.(b*)")
	dag, err := EliminateCycles(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"", "ab", "abb"} {
		if !mustEval(t, r, doc(text)).Equal(mustEval(t, dag, doc(text))) {
			t.Errorf("acyclic input changed on %q", text)
		}
	}
}

func TestToFunctionalUnion(t *testing.T) {
	// Paper's example: (x ∨ y) ∧ x.(a|b) ∧ y.(c) expands into the
	// cross product of the disjuncts.
	r := MustParse("(<x>|<y>) && x.(a|b) && y.(c)")
	u, err := ToFunctionalUnion(r, DefaultRuleBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range u {
		if !m.IsFunctional() {
			t.Errorf("member not functional: %s", m)
		}
	}
	for _, text := range []string{"a", "b", "c", "d", ""} {
		want := mustEval(t, r, doc(text))
		got := mustEvalUnion(t, u, doc(text))
		if !got.Equal(want) {
			t.Errorf("on %q: got %v, want %v", text, got.Mappings(), want.Mappings())
		}
	}
}

func TestToDagUnionEliminatesCycles(t *testing.T) {
	r := MustParse("(<x>|a*) && x.(<y>) && y.(<x>)")
	u, err := ToDagUnion(r, DefaultRuleBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range u {
		if !IsDagLike(m) {
			t.Errorf("member not dag-like: %s", m)
		}
	}
	for _, text := range []string{"", "a", "ab"} {
		want := mustEval(t, r, doc(text))
		got := stripAux(mustEvalUnion(t, u, doc(text)))
		if !got.Equal(want) {
			t.Errorf("on %q: got %v, want %v", text, got.Mappings(), want.Mappings())
		}
	}
}

func TestTreeToRGXAndBack(t *testing.T) {
	r := MustParse("a(<x>)b(<y>) && x.(c*) && y.(d|<z>) && z.(e)")
	n, err := TreeToRGX(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"ab", "acbd", "acbe", "abe", "acccbd"} {
		want := mustEval(t, r, doc(text))
		got := rgxEval(t, n, text)
		if !got.Equal(want) {
			t.Errorf("on %q: rule %v vs rgx %v", text, want.Mappings(), got.Mappings())
		}
	}
	// And back: the RGX decomposes into tree-like rules with the same
	// semantics.
	u, err := RGXToTreeUnion(n, DefaultRuleBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range u {
		if !IsTreeLike(m) {
			t.Errorf("member not tree-like: %s", m)
		}
	}
	for _, text := range []string{"ab", "acbd", "acbe"} {
		want := mustEval(t, r, doc(text))
		got := mustEvalUnion(t, u, doc(text))
		if !got.Equal(want) {
			t.Errorf("back conversion differs on %q", text)
		}
	}
}

func TestTreeToRGXRejectsNonTree(t *testing.T) {
	r := MustParse("<x>(<y>) && x.(a<z>) && y.(<z>b) && z.(.*)")
	if _, err := TreeToRGX(r); err != ErrNotTreeLike {
		t.Fatalf("err = %v, want ErrNotTreeLike", err)
	}
}

func TestDagToTreeUnionPaperExample(t *testing.T) {
	// (x·Σ*·y) ∧ x.(a·z·b*) ∧ y.(b*·z·a) ∧ z.(Σ*): satisfiable only
	// by "aa" with x=(1,2), y=(2,3), z=(2,2).
	r := MustParse("<x>.*<y> && x.(a<z>b*) && y.(b*(<z>)a) && z.(.*)")
	if !IsDagLike(r) {
		t.Fatal("example must be dag-like")
	}
	u, err := DagToTreeUnion(r, DefaultRuleBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) == 0 {
		t.Fatal("satisfiable rule produced empty union")
	}
	for _, m := range u {
		if !IsTreeLike(m) {
			t.Errorf("member not tree-like: %s", m)
		}
	}
	for _, text := range []string{"", "a", "aa", "ab", "ba", "aaa", "aba"} {
		want := mustEval(t, r, doc(text))
		got := stripAux(mustEvalUnion(t, u, doc(text)))
		if !got.Equal(want) {
			t.Errorf("on %q: got %v, want %v\nunion:\n%s", text, got.Mappings(), want.Mappings(), u)
		}
	}
	// Sanity: the expected witness mapping really is there.
	witness := span.Mapping{"x": span.Sp(1, 2), "y": span.Sp(2, 3), "z": span.Sp(2, 2)}
	if !mustEval(t, r, doc("aa")).Contains(witness) {
		t.Errorf("original rule lost its witness: %v", mustEval(t, r, doc("aa")).Mappings())
	}
}

func TestSatisfiable(t *testing.T) {
	cases := []struct {
		rule string
		want bool
	}{
		{"<x> && x.(a<y>) && y.(b*)", true},                        // tree-like
		{"<x> && x.(<y>) && y.(a<x>)", false},                      // red cycle
		{"<x> && x.(<y>) && y.(<x>)", true},                        // green cycle
		{"<x>.*<y> && x.(a<z>b*) && y.(b*(<z>)a) && z.(.*)", true}, // paper dag
		{"a && b", false},                                          // contradictory doc... not expressible; see below
	}
	// The last row is not valid syntax for a rule (two doc formulas);
	// replace it with the canonical unsatisfiable rule.
	cases[len(cases)-1] = struct {
		rule string
		want bool
	}{"", false}
	for _, c := range cases {
		var r *Rule
		if c.rule == "" {
			r = UnsatRule()
		} else {
			r = MustParse(c.rule)
		}
		got, err := Satisfiable(r, DefaultRuleBudget)
		if err != nil {
			t.Fatalf("Satisfiable(%s): %v", r, err)
		}
		if got != c.want {
			t.Errorf("Satisfiable(%s) = %v, want %v", r, got, c.want)
		}
	}
}

func TestNonEmptyTractablePath(t *testing.T) {
	r := MustParse("a*<x>c* && x.(b*)")
	if !r.IsSequential() || !IsTreeLike(r) {
		t.Fatal("test rule should be sequential tree-like")
	}
	if ok, err := NonEmpty(r, doc("aabbcc")); err != nil || !ok {
		t.Errorf("expected non-empty, got %v, %v", ok, err)
	}
	if ok, err := NonEmpty(r, doc("ca")); err != nil || ok {
		t.Errorf("expected empty, got %v, %v", ok, err)
	}
}

func TestStripAuxCaptures(t *testing.T) {
	n := rgx.Capture(span.Var(AuxPrefix+"1"), rgx.Capture("x", rgx.Lit('a')))
	stripped := StripAuxCaptures(n)
	if strings.Contains(stripped.String(), AuxPrefix) {
		t.Errorf("aux capture survived: %v", stripped)
	}
	if !rgx.Equal(stripped, rgx.Capture("x", rgx.Lit('a'))) {
		t.Errorf("got %v", stripped)
	}
}
