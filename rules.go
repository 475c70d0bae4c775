package spanners

import (
	"spanners/internal/eval"
	"spanners/internal/rgx"
	"spanners/internal/rules"
	"spanners/internal/span"
)

// Rule is a compiled extraction rule ϕ0 ∧ x1.ϕ1 ∧ … ∧ xm.ϕm of span
// regular expressions (Section 3.3). The document formula constrains
// the whole document; each conjunct constrains the span captured by
// its variable, and applies only when the variable is instantiated —
// the instantiated-variable semantics that makes nondeterministic
// choices like (x|y) ∧ x.(ab*) ∧ y.(ba*) behave correctly.
type Rule struct {
	rule *rules.Rule
	ev   *rules.Evaluator
}

// ParseRule parses the concrete rule syntax
//
//	docExpr && x.(expr) && y.(expr) …
//
// where each expr is a span regular expression — RGX whose captures
// are all of the fixed form x{.*}, for which the shorthand <x> is
// accepted.
func ParseRule(input string) (*Rule, error) {
	r, err := rules.Parse(input)
	if err != nil {
		return nil, err
	}
	ev, err := rules.NewEvaluator(r)
	if err != nil {
		return nil, err
	}
	return &Rule{rule: r, ev: ev}, nil
}

// MustParseRule is ParseRule that panics on error.
func MustParseRule(input string) *Rule {
	r, err := ParseRule(input)
	if err != nil {
		panic(err)
	}
	return r
}

// String renders the rule back in the concrete syntax ParseRule
// accepts.
func (r *Rule) String() string { return r.rule.String() }

// ExtractAll evaluates the rule over d, returning every output
// mapping. Rule evaluation is NP-hard in general (Theorem 5.8); for
// sequential tree-like rules prefer ToSpanner, which evaluates in
// polynomial time per output (Theorem 5.9).
func (r *Rule) ExtractAll(d *Document) []Mapping {
	return r.ev.Eval(d).Mappings()
}

// Matches reports whether the rule outputs anything on d, using the
// tractable tree-like path when available.
func (r *Rule) Matches(d *Document) bool { return r.ev.NonEmpty(d) }

// Simple reports whether all conjunct variables are distinct — the
// fragment for which the tree-like hierarchy below is stated.
func (r *Rule) Simple() bool { return r.rule.IsSimple() }

// TreeLike reports whether the rule graph is a tree rooted at the
// document formula (the tractable class of Theorem 5.9).
func (r *Rule) TreeLike() bool { return rules.IsTreeLike(r.rule) }

// DagLike reports whether the rule graph is acyclic — the
// intermediate class between tree-like and general rules in the
// Theorem 4.10 rewriting pipeline.
func (r *Rule) DagLike() bool { return rules.IsDagLike(r.rule) }

// Sequential reports whether every expression in the rule is
// sequential (Proposition 5.5 applied conjunct-wise), the fragment
// whose tree-like members evaluate in polynomial time per output
// (Theorem 5.9).
func (r *Rule) Sequential() bool { return r.rule.IsSequential() }

// Satisfiable reports whether some document makes the rule output a
// mapping, via the paper's pipeline (decompose → eliminate cycles →
// unknot dags into trees; Theorem 6.3). budget caps the worst-case
// double-exponential rewriting.
func (r *Rule) Satisfiable(budget int) (bool, error) {
	return rules.Satisfiable(r.rule, budget)
}

// ToSpanner converts a tree-like rule into an equivalent Spanner by
// the substitution of Lemma B.1. Non-tree-like rules are first
// rewritten through the Theorem 4.10 pipeline (functional
// decomposition, cycle elimination, dag unknotting); the result is
// equivalent modulo the auxiliary variables the rewriting introduces,
// which are projected away. budget caps the rewriting size.
func (r *Rule) ToSpanner(budget int) (*Spanner, error) {
	if rules.IsTreeLike(r.rule) {
		n, err := rules.TreeToRGX(r.rule)
		if err != nil {
			return nil, err
		}
		return compileNode(n)
	}
	dags, err := rules.ToDagUnion(r.rule, budget)
	if err != nil {
		return nil, err
	}
	var trees rules.Union
	for _, dag := range dags {
		sub, err := rules.DagToTreeUnion(dag, budget)
		if err != nil {
			return nil, err
		}
		trees = append(trees, sub...)
	}
	n, err := rules.UnionOfTreesToRGX(trees)
	if err != nil {
		return nil, err
	}
	return compileNode(n)
}

// Vars returns every variable mentioned by the rule, conjunct
// variables and capture variables alike.
func (r *Rule) Vars() []Var {
	vars := r.rule.Vars()
	return append([]span.Var(nil), vars...)
}

func compileNode(n rgx.Node) (*Spanner, error) {
	e, err := eval.CompileRGX(n)
	if err != nil {
		return nil, err
	}
	return &Spanner{expr: n, source: n.String(), engine: e}, nil
}
