package algebra

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spanners"
	"spanners/internal/eval"
	"spanners/internal/span"
)

// This file is the optimizer's correctness spine: a generator of
// random well-formed expressions over a seeded leaf pool, evaluated
// optimized vs literal vs a set-semantics oracle across the engine
// knob matrix (compiled+DFA / compiled no-DFA), plus
// golden tests pinning each rewrite rule — and pinning the two
// tempting rules that must NOT fire.

// harnessUniverse is the variable universe of the generated
// expressions; the leaf pool carries 2–3 leaves per subset so the
// generator can target any variable schema exactly.
var harnessUniverse = []string{"x", "y", "z"}

var harnessLeaves = []struct {
	name, src, vars string
}{
	{"e0", ".*", ""},
	{"e1", ".*a.*", ""},
	{"x0", ".*x{a}.*", "x"},
	{"x1", "x{a*}.*", "x"},
	{"x2", ".*x{a|b}.*", "x"},
	{"y0", ".*y{b}.*", "y"},
	{"y1", "y{.?}.*", "y"},
	{"z0", ".*z{.}.*", "z"},
	{"z1", "z{b*}.*", "z"},
	{"xy0", ".*x{a}y{b?}.*", "x,y"},
	{"xy1", "x{.*}y{.*}", "x,y"},
	// Partial-mapping leaves: each output assigns only one of the two
	// variables — the shapes that separate spanner semantics from
	// classical relations.
	{"xy2", "x{a}.*|.*y{b}", "x,y"},
	{"xz0", ".*x{.}.*z{.}.*", "x,z"},
	{"xz1", "x{a}.*|.*z{b}", "x,z"},
	{"yz0", ".*y{.}z{.?}.*", "y,z"},
	{"yz1", ".*y{a}.*|z{b*}.*", "y,z"},
	{"xyz0", ".*x{.}y{.*}z{.?}.*", "x,y,z"},
	{"xyz1", "x{a}.*|.*y{.}.*|.*z{b}", "x,y,z"},
}

// newHarnessPool compiles the leaf pool and indexes it by variable
// set.
func newHarnessPool(t testing.TB) (mapResolver, map[string][]string) {
	t.Helper()
	res := mapResolver{}
	byVars := map[string][]string{}
	for _, l := range harnessLeaves {
		sp, err := spanners.Compile(l.src)
		if err != nil {
			t.Fatalf("leaf %s = %q: %v", l.name, l.src, err)
		}
		got := varKey(sp.Vars())
		if got != l.vars {
			t.Fatalf("leaf %s = %q binds %q, declared %q", l.name, l.src, got, l.vars)
		}
		res[l.name] = sp
		byVars[l.vars] = append(byVars[l.vars], l.name)
	}
	return res, byVars
}

func varKey(vars []spanners.Var) string {
	ss := make([]string, len(vars))
	for i, v := range vars {
		ss[i] = string(v)
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

// genAlgebra generates a random expression binding exactly the target
// variable set: union and join children cover the target (the first
// child binds all of it), projections come from a random superset,
// difference operands both hit the target — so every generated tree
// passes validation by construction.
func genAlgebra(rng *rand.Rand, byVars map[string][]string, target []string, depth int) Expr {
	if depth <= 0 || rng.Float64() < 0.25 {
		names := byVars[strings.Join(target, ",")]
		return Ref{Name: names[rng.Intn(len(names))]}
	}
	// Mostly binary operators: composed automaton sizes multiply
	// through joins, and the harness needs thousands of cheap
	// expressions more than it needs a few enormous ones.
	arity := func() int {
		if rng.Intn(4) == 0 {
			return 3
		}
		return 2
	}
	switch rng.Intn(8) {
	case 0, 1, 2: // union, subsets allowed past the first child
		args := []Expr{genAlgebra(rng, byVars, target, depth-1)}
		for i := 1; i < arity(); i++ {
			args = append(args, genAlgebra(rng, byVars, randSubset(rng, target), depth-1))
		}
		return Union{Args: args}
	case 3, 4, 5: // join, same coverage scheme
		args := []Expr{genAlgebra(rng, byVars, target, depth-1)}
		for i := 1; i < arity(); i++ {
			args = append(args, genAlgebra(rng, byVars, randSubset(rng, target), depth-1))
		}
		return Join{Args: args}
	case 6: // project from a superset (possibly the target itself)
		super := randSuperset(rng, target)
		vars := make([]spanners.Var, len(target))
		for i, v := range target {
			vars[i] = spanners.Var(v)
		}
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		return Project{Arg: genAlgebra(rng, byVars, super, depth-1), Vars: vars}
	default: // difference, schema-matched operands
		return Difference{
			A: genAlgebra(rng, byVars, target, depth-1),
			B: genAlgebra(rng, byVars, target, depth-1),
		}
	}
}

func randSubset(rng *rand.Rand, vars []string) []string {
	var out []string
	for _, v := range vars {
		if rng.Float64() < 0.7 {
			out = append(out, v)
		}
	}
	return out
}

func randSuperset(rng *rand.Rand, vars []string) []string {
	in := map[string]bool{}
	for _, v := range vars {
		in[v] = true
	}
	out := append([]string(nil), vars...)
	for _, v := range harnessUniverse {
		if !in[v] && rng.Float64() < 0.5 {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// oracleEval evaluates e under pure set semantics: leaves by the
// exhaustive reference run enumeration, operators by the reference
// set algebra of internal/span. No planner, no compiled program, no
// sharing — the slowest, most obviously correct interpretation.
func oracleEval(t *testing.T, e Expr, res mapResolver, d *span.Document) *span.Set {
	switch n := e.(type) {
	case Ref:
		return res[n.Name].Automaton().Mappings(d)
	case Union:
		acc := oracleEval(t, n.Args[0], res, d)
		for _, a := range n.Args[1:] {
			acc = acc.Union(oracleEval(t, a, res, d))
		}
		return acc
	case Join:
		acc := oracleEval(t, n.Args[0], res, d)
		for _, a := range n.Args[1:] {
			acc = acc.Join(oracleEval(t, a, res, d))
		}
		return acc
	case Difference:
		left := oracleEval(t, n.A, res, d)
		right := oracleEval(t, n.B, res, d)
		out := span.NewSet()
		for _, m := range left.Mappings() {
			if !right.Contains(m) {
				out.Add(m)
			}
		}
		return out
	case Project:
		return oracleEval(t, n.Arg, res, d).Project(n.Vars)
	}
	t.Fatalf("oracle: unknown node %T", e)
	return nil
}

// resultKeys serializes an engine's result set: distinct mapping
// keys, sorted — the byte-identical form every evaluation path must
// agree on.
func resultKeys(eng *eval.Engine, d *span.Document) string {
	seen := map[string]bool{}
	eng.Enumerate(d, func(m span.Mapping) bool {
		seen[m.Key()] = true
		return true
	})
	return joinSorted(seen)
}

func setKeys(s *span.Set) string {
	seen := map[string]bool{}
	for _, m := range s.Mappings() {
		seen[m.Key()] = true
	}
	return joinSorted(seen)
}

func joinSorted(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// mustEngine compiles a plan's automaton, failing the test on error.
func mustEngine(t testing.TB, p *Plan) *eval.Engine {
	t.Helper()
	e, err := eval.NewEngine(p.Spanner.Automaton())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// knobEngines builds the two evaluation configurations of one plan:
// the full compiled ladder (DFA on) and compiled bitset stepping (DFA
// off).
func knobEngines(t testing.TB, p *Plan) map[string]*eval.Engine {
	full := mustEngine(t, p)
	nodfa := mustEngine(t, p)
	nodfa.ForceNoDFA()
	return map[string]*eval.Engine{"dfa": full, "nodfa": nodfa}
}

// TestPlanDifferential is the acceptance harness: ≥1000 random
// well-formed expressions, each built literally and optimized, each
// evaluated through both engine configurations, all four paths
// byte-identical to the set-semantics oracle.
func TestPlanDifferential(t *testing.T) {
	res, byVars := newHarnessPool(t)
	rng := rand.New(rand.NewSource(9))
	docs := []*span.Document{
		span.NewDocument(""),
		span.NewDocument("ab"),
		span.NewDocument("bab"),
	}
	n := 1000
	if testing.Short() {
		n = 120
	}
	targets := [][]string{{"x"}, {"y"}, {"z"}, {"x", "y"}, {"x", "z"}, {"y", "z"}, {"x", "y", "z"}, nil}
	const budget = 1 << 17

	// screenEst bounds the literal composition cost of a candidate
	// before building it: union and join products are unbudgeted, so a
	// rare monster expression would spend the whole time budget (or
	// hang) composing one automaton. Differences are the exception —
	// that construction is budgeted end-to-end and errors instead of
	// exploding, so only its operands need screening, with its trimmed
	// result entering the enclosing estimate as a small automaton.
	cm := &costModel{leafMeta: map[string]leafMeta{}}
	for name, sp := range res {
		cm.leafMeta[name] = leafMeta{vars: sp.Vars(), states: sp.Automaton().NumStates}
	}
	var screenEst func(Expr) float64
	screenEst = func(e Expr) float64 {
		switch node := e.(type) {
		case Ref:
			return float64(cm.leafMeta[node.Canonical()].states)
		case Union:
			total := 2.0
			for _, a := range node.Args {
				total += screenEst(a)
			}
			return total
		case Join:
			acc := screenEst(node.Args[0])
			accVars := cm.varsOf(node.Args[0])
			for _, a := range node.Args[1:] {
				shared := 0
				for v := range cm.varsOf(a) {
					if accVars[v] {
						shared++
						continue
					}
					accVars[v] = true
				}
				acc *= screenEst(a) * math.Pow(4, float64(shared))
			}
			return acc
		case Difference:
			if inner := math.Max(screenEst(node.A), screenEst(node.B)); inner > 400 {
				return inner
			}
			return 400
		case Project:
			inner := cm.varsOf(node.Arg)
			dropped := len(inner)
			for _, v := range node.Vars {
				if inner[v] {
					dropped--
				}
			}
			return screenEst(node.Arg) * math.Pow(3, float64(dropped))
		}
		return 1
	}
	const maxEst = 50_000

	evaluated, rewrote, skippedBudget, skippedLarge := 0, 0, 0, 0
	for attempt := 0; evaluated < n && attempt < 5*n; attempt++ {
		target := targets[rng.Intn(len(targets))]
		e := genAlgebra(rng, byVars, target, 1+rng.Intn(2))
		if screenEst(e) > maxEst {
			skippedLarge++
			continue
		}

		lit, litErr := BuildWith(e, res, Options{Optimize: false, DifferenceBudget: budget})
		opt, optErr := BuildWith(e, res, Options{Optimize: true, DifferenceBudget: budget})
		if litErr != nil || optErr != nil {
			// The only legitimate failure for a well-formed generated
			// expression is difference budget exhaustion. Optimizing
			// inside an operand can move the composition across the
			// budget line, so the two builds may disagree — but only
			// about the budget.
			for _, err := range []error{litErr, optErr} {
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("%s: unexpected build error %v", e.Canonical(), err)
				}
			}
			skippedBudget++
			continue
		}
		if opt.Pinned != lit.Pinned {
			t.Fatalf("optimization changed the cache key %q -> %q", lit.Pinned, opt.Pinned)
		}
		evaluated++
		if len(opt.Rewrites) > 0 {
			rewrote++
		}
		engines := map[string]*eval.Engine{}
		for k, eng := range knobEngines(t, lit) {
			engines["literal/"+k] = eng
		}
		for k, eng := range knobEngines(t, opt) {
			engines["optimized/"+k] = eng
		}
		for _, d := range docs {
			want := setKeys(oracleEval(t, e, res, d))
			for path, eng := range engines {
				if got := resultKeys(eng, d); got != want {
					t.Fatalf("%s on %q via %s:\n got %q\nwant %q",
						e.Canonical(), d.Text(), path, got, want)
				}
			}
		}
	}
	t.Logf("%d expressions green: %d optimized, %d skipped on difference budget, %d skipped as oversized",
		evaluated, rewrote, skippedBudget, skippedLarge)
	if evaluated < n {
		t.Fatalf("only %d/%d expressions evaluated — generator skips too much", evaluated, n)
	}
	if rewrote < n/10 {
		t.Fatalf("only %d/%d expressions rewrote — harness lost its teeth", rewrote, n)
	}
}

// TestRewriteRulesGolden pins each rule on a minimal expression: the
// rule fires, the optimized canonical form is exactly as predicted,
// and the rewrite is result-identical to the literal build.
func TestRewriteRulesGolden(t *testing.T) {
	leaves := mapResolver{
		"xs":  spanners.MustCompile(".*x{a}.*"),
		"xy":  spanners.MustCompile(".*x{a}y{b?}.*"),
		"yz":  spanners.MustCompile(".*y{b}z{.?}.*"),
		"xyz": spanners.MustCompile(".*x{.}y{.*}z{.?}.*"),
	}
	const v = "@vvvvvvvvvvvv"
	cases := []struct {
		expr, rule, optimized string
	}{
		{"project(xs, x)", "project-identity", "xs" + v},
		{"project(project(xyz, x, y), x)", "project-collapse", "project(xyz" + v + ",x)"},
		{"project(union(xy, xs), x)", "project-past-union", "union(project(xy" + v + ",x),xs" + v + ")"},
		{"project(join(xy, yz), x)", "project-past-join",
			"project(join(xy" + v + ",project(yz" + v + ",y)),x)"},
		{"union(xs, xs)", "dedup-union", "xs" + v},
		{"union(xs, xy, xs)", "dedup-union", "union(xs" + v + ",xy" + v + ")"},
	}
	docs := []string{"", "ab", "bab", "abab"}
	for _, c := range cases {
		e, err := Parse(c.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.expr, err)
		}
		opt, err := Build(e, leaves)
		if err != nil {
			t.Fatalf("Build(%q): %v", c.expr, err)
		}
		fired := false
		for _, r := range opt.Rewrites {
			if r.Rule == c.rule {
				fired = true
			}
		}
		if !fired {
			t.Errorf("%q: rule %s did not fire (rewrites %v)", c.expr, c.rule, opt.Rewrites)
		}
		if opt.Optimized != c.optimized {
			t.Errorf("%q optimized to %q, want %q", c.expr, opt.Optimized, c.optimized)
		}
		lit, err := BuildWith(e, leaves, Options{})
		if err != nil {
			t.Fatalf("literal Build(%q): %v", c.expr, err)
		}
		for _, d := range docs {
			if got, want := mappings(opt.Spanner, d), mappings(lit.Spanner, d); got != want {
				t.Errorf("%q on %q: optimized %s, literal %s", c.expr, d, got, want)
			}
		}
	}
}

// TestJoinReorderGolden pins the reorder rule: a wide join whose
// largest operand is written first gets reordered so the fold starts
// from a cheaper operand, and the result set is unchanged.
func TestJoinReorderGolden(t *testing.T) {
	leaves := mapResolver{
		"big":   spanners.MustCompile(".*x{(a|b)(a|b)(a|b)}.*a.*b.*"),
		"small": spanners.MustCompile(".*y{b}.*"),
		"tiny":  spanners.MustCompile("z{a*}.*"),
	}
	e, err := Parse("join(big, small, tiny)")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Build(e, leaves)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, r := range opt.Rewrites {
		if r.Rule == "join-reorder" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("join-reorder did not fire: rewrites %v, optimized %q", opt.Rewrites, opt.Optimized)
	}
	if strings.HasPrefix(opt.Optimized, "join(big@") {
		t.Fatalf("largest operand still folds first: %q", opt.Optimized)
	}
	if opt.Pinned == opt.Optimized {
		t.Fatalf("reorder left the canonical form unchanged: %q", opt.Optimized)
	}
	lit, err := BuildWith(e, leaves, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"", "aab", "abab"} {
		if got, want := mappings(opt.Spanner, d), mappings(lit.Spanner, d); got != want {
			t.Errorf("on %q: optimized %s, literal %s", d, got, want)
		}
	}
}

// TestProjectionPastDifferenceMustNotFire pins the unsound rewrite:
// π_x(A∖B) ≠ π_x(A)∖π_x(B). Here A has two outputs sharing the same
// x-span and B subtracts one of them — the projected difference keeps
// x, while differencing the projections would wrongly cancel it.
func TestProjectionPastDifferenceMustNotFire(t *testing.T) {
	leaves := mapResolver{
		"wide": spanners.MustCompile("x{a}y{.?}.*"),
		"one":  spanners.MustCompile("x{a}y{b}"),
	}
	e, err := Parse("project(difference(wide, one), x)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(e, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Optimized != plan.Pinned {
		t.Fatalf("a rewrite crossed the difference: %q -> %q", plan.Pinned, plan.Optimized)
	}
	doc := span.NewDocument("ab")

	// The unsound rewrite yields the empty set on this document…
	a := leaves["wide"].Automaton().Mappings(doc).Project([]span.Var{"x"})
	b := leaves["one"].Automaton().Mappings(doc).Project([]span.Var{"x"})
	unsound := 0
	for _, m := range a.Mappings() {
		if !b.Contains(m) {
			unsound++
		}
	}
	if unsound != 0 {
		t.Fatalf("test lost its edge: π(A)∖π(B) has %d mappings, want 0", unsound)
	}
	// …while the correct answer keeps the surviving x-assignment.
	eng := mustEngine(t, plan)
	var got []string
	eng.Enumerate(doc, func(m span.Mapping) bool { got = append(got, m.Key()); return true })
	if len(got) != 1 {
		t.Fatalf("π_x(A∖B) on %q = %v, want exactly one mapping", doc.Text(), got)
	}
}

// TestJoinSelfDedupMustNotFire pins the second unsound rewrite: under
// partial-mapping semantics join is not idempotent — two outputs of
// the same spanner assigning disjoint variables join into a mapping
// the spanner itself never produced, so join(c,c) must compose both
// operands (the subexpression still composes once, via CSE).
func TestJoinSelfDedupMustNotFire(t *testing.T) {
	leaves := mapResolver{"c": spanners.MustCompile("x{a}.*|.*y{b}")}
	e, err := Parse("join(c, c)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(e, leaves)
	if err != nil {
		t.Fatal(err)
	}
	const want = "join(c@vvvvvvvvvvvv,c@vvvvvvvvvvvv)"
	if plan.Optimized != want {
		t.Fatalf("join(c,c) optimized to %q — self-join must not dedup", plan.Optimized)
	}
	if plan.CSEHits == 0 {
		t.Fatalf("identical operands should share one composition (CSEHits = 0)")
	}
	doc := span.NewDocument("ab")
	single := leaves["c"].Automaton().Mappings(doc)
	joined := plan.Spanner.Automaton().Mappings(doc)
	if joined.Len() <= single.Len() {
		t.Fatalf("join(c,c) has %d mappings, c has %d — expected the merged mapping to appear",
			joined.Len(), single.Len())
	}
	if !single.SubsetOf(joined) {
		t.Fatalf("join(c,c) lost mappings of c")
	}
}

// TestDifferenceSchemaMismatch pins the validation rung the service
// maps to the "unbound" error code: difference operands must bind
// equal variable sets, and the failure is identical with the
// optimizer on or off.
func TestDifferenceSchemaMismatch(t *testing.T) {
	leaves := mapResolver{
		"xs": spanners.MustCompile(".*x{a}.*"),
		"ys": spanners.MustCompile(".*y{b}.*"),
	}
	e, err := Parse("difference(xs, ys)")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Optimize: true}} {
		if _, err := BuildWith(e, leaves, opts); !errors.Is(err, ErrUnbound) {
			t.Fatalf("opts %+v: error = %v, want ErrUnbound", opts, err)
		}
	}
}

// TestDifferenceBudgetTyped pins the budget failure: a tiny budget
// must surface ErrBudget (the service's typed 4xx), never a panic or
// an untyped error.
func TestDifferenceBudgetTyped(t *testing.T) {
	leaves := mapResolver{
		"xa": spanners.MustCompile(".*x{a*}.*"),
		"xb": spanners.MustCompile(".*x{a|b*}.*"),
	}
	e, err := Parse("difference(xa, xb)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWith(e, leaves, Options{DifferenceBudget: 2}); !errors.Is(err, ErrBudget) {
		t.Fatalf("error = %v, want ErrBudget", err)
	}
}

// TestDifferenceEndToEnd is the smallest end-to-end check that a
// planned difference evaluates correctly through the compiled engine.
func TestDifferenceEndToEnd(t *testing.T) {
	leaves := mapResolver{
		"all":  spanners.MustCompile(".*x{a+}.*"),
		"pair": spanners.MustCompile(".*x{aa}.*"),
	}
	e, err := Parse("difference(all, pair)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(e, leaves)
	if err != nil {
		t.Fatal(err)
	}
	doc := span.NewDocument("aaab")
	want := oracleEval(t, e, leaves, doc)
	if want.Len() == 0 || want.Len() == leaves["all"].Automaton().Mappings(doc).Len() {
		t.Fatalf("degenerate fixture: difference has %d mappings", want.Len())
	}
	for name, eng := range knobEngines(t, plan) {
		if got := resultKeys(eng, doc); got != setKeys(want) {
			t.Errorf("%s: got %q, want %q", name, got, setKeys(want))
		}
	}
}
