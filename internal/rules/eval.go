package rules

import (
	"sort"

	"spanners/internal/eval"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// Evaluator computes ⟦ϕ⟧_d for one rule. Conjunct spanners are
// compiled once and their mapping sets per document are materialized
// lazily, so repeated evaluation over documents amortizes the
// compilation.
type Evaluator struct {
	rule       *Rule
	docEngine  *eval.Engine
	conjEngine []*eval.Engine
}

// NewEvaluator compiles the rule's spanners. It fails with an error
// wrapping program.ErrBudget when one of them is beyond the
// compiled-program budgets.
func NewEvaluator(r *Rule) (*Evaluator, error) {
	doc, err := eval.CompileRGX(r.Doc)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{rule: r, docEngine: doc}
	for _, c := range r.Conjuncts {
		// ⟦x.R⟧_d = { µ | ∃s. (s, µ) ∈ [x{R}]_d }: wrap the conjunct
		// as Σ*·x{R}·Σ* so the whole-document semantics of the engine
		// existentially quantifies the span (Section 3.3).
		wrapped := rgx.Seq(
			rgx.Kleene(rgx.AnyChar()),
			rgx.Capture(c.Var, c.Expr),
			rgx.Kleene(rgx.AnyChar()),
		)
		e, err := eval.CompileRGX(wrapped)
		if err != nil {
			return nil, err
		}
		ev.conjEngine = append(ev.conjEngine, e)
	}
	return ev, nil
}

// Eval computes ⟦ϕ⟧_d following the satisfaction definition of
// Section 3.3: pick µ0 ∈ ⟦ϕ0⟧_d, then repeatedly satisfy every
// conjunct whose variable is instantiated so far (the ivar fixpoint),
// requiring all chosen mappings to be compatible; conjuncts of
// uninstantiated variables contribute the empty mapping. The output
// is the set of unions ⋃µi over all satisfying tuples. Worst-case
// exponential — rule evaluation is NP-hard (Theorem 5.8) — but exact.
func (ev *Evaluator) Eval(d *span.Document) *span.Set {
	out := span.NewSet()
	m0 := ev.docEngine.All(d)
	conjSets := make([]*span.Set, len(ev.conjEngine)) // lazy per-conjunct sets

	conjunctsOf := map[span.Var][]int{}
	for i, c := range ev.rule.Conjuncts {
		conjunctsOf[c.Var] = append(conjunctsOf[c.Var], i)
	}

	var rec func(acc span.Mapping, done map[int]bool)
	rec = func(acc span.Mapping, done map[int]bool) {
		// Find the first unprocessed conjunct whose variable is
		// instantiated in the accumulated union.
		next := -1
		vars := acc.Domain()
		for _, v := range vars {
			for _, i := range conjunctsOf[v] {
				if !done[i] {
					next = i
					break
				}
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			out.Add(acc)
			return
		}
		if conjSets[next] == nil {
			conjSets[next] = ev.conjEngine[next].All(d)
		}
		done[next] = true
		for _, mi := range conjSets[next].Mappings() {
			if u, ok := acc.Union(mi); ok {
				rec(u, done)
			}
		}
		delete(done, next)
	}

	for _, m := range m0.Mappings() {
		rec(m, map[int]bool{})
	}
	return out
}

// Eval is a convenience one-shot evaluation of a rule.
func Eval(r *Rule, d *span.Document) (*span.Set, error) {
	ev, err := NewEvaluator(r)
	if err != nil {
		return nil, err
	}
	return ev.Eval(d), nil
}

// EvalUnion evaluates a union of rules: the union of the members'
// outputs (Section 4.3).
func EvalUnion(u Union, d *span.Document) (*span.Set, error) {
	out := span.NewSet()
	for _, r := range u {
		set, err := Eval(r, d)
		if err != nil {
			return nil, err
		}
		for _, m := range set.Mappings() {
			out.Add(m)
		}
	}
	return out, nil
}

// NonEmpty reports ⟦ϕ⟧_d ≠ ∅. For sequential tree-like rules this is
// decided in polynomial time by translating the rule to an RGX
// (Lemma B.1) and running the sequential Eval engine (Theorem 5.9);
// other rules fall back to the exponential evaluator, matching the
// NP-hardness of Theorem 5.8.
func NonEmpty(r *Rule, d *span.Document) (bool, error) {
	if ok, decided := treeNonEmpty(r, d); decided {
		return ok, nil
	}
	set, err := Eval(r, d)
	if err != nil {
		return false, err
	}
	return set.Len() > 0, nil
}

// NonEmpty is the package-level NonEmpty on the evaluator's rule,
// reusing its compiled spanners for the fallback.
func (ev *Evaluator) NonEmpty(d *span.Document) bool {
	if ok, decided := treeNonEmpty(ev.rule, d); decided {
		return ok
	}
	return ev.Eval(d).Len() > 0
}

// treeNonEmpty is the polynomial path of NonEmpty; decided is false
// when the rule is not sequential tree-like or its RGX is beyond the
// compiled-program budget.
func treeNonEmpty(r *Rule, d *span.Document) (ok, decided bool) {
	if !r.IsSequential() || !IsTreeLike(r) {
		return false, false
	}
	n, err := TreeToRGX(r)
	if err != nil {
		return false, false
	}
	e, err := eval.CompileRGX(n)
	if err != nil {
		return false, false
	}
	return e.NonEmpty(d), true
}

// sortedVars returns the rule's conjunct variables in sorted order,
// for deterministic processing.
func sortedVars(r *Rule) []span.Var {
	var vars []span.Var
	seen := map[span.Var]bool{}
	for _, c := range r.Conjuncts {
		if !seen[c.Var] {
			seen[c.Var] = true
			vars = append(vars, c.Var)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return vars
}
