package algebra

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"spanners"
	"spanners/internal/program"
)

// LeafResolver turns a leaf reference into an automaton-bearing
// spanner. version is a concrete 12-hex content address, or "" for
// the registry's latest; the resolved version comes back so the plan
// can report a fully pinned cache key. The returned spanner must have
// Automaton() != nil — the algebra composes through the automaton
// constructions of Theorem 4.5, which program-only artifacts cannot
// support.
type LeafResolver interface {
	Resolve(name, version string) (sp *spanners.Spanner, resolvedVersion string, err error)
}

// Options controls how Build turns an expression into a plan.
type Options struct {
	// Optimize runs the planner rewrites (optimize.go) on the
	// validated tree before composing. Off, the tree composes
	// literally — the differential harness builds both ways and
	// asserts identical results.
	Optimize bool
	// DifferenceBudget bounds the determinization work behind each
	// difference composition; <= 0 means
	// spanners.DefaultDifferenceBudget. Exhaustion fails the build
	// with ErrBudget.
	DifferenceBudget int
}

// Plan is a composed, ready-to-evaluate algebra expression.
type Plan struct {
	// Spanner is the composed spanner; it runs the compiled execution
	// core whenever the composition fits the program budgets.
	Spanner *spanners.Spanner
	// Pinned is the canonical expression as written, with every leaf
	// resolved to a concrete version: the cache key, and — for
	// registered algebra artifacts — the source of truth whose
	// meaning content addressing freezes forever. Optimization never
	// changes it: the key names what was asked for, not how the
	// planner chose to run it.
	Pinned string
	// Optimized is the canonical form the plan actually composed —
	// equal to Pinned when no rewrite fired or optimization was off.
	Optimized string
	// Rewrites logs every planner rule firing, in application order.
	Rewrites []Rewrite
	// EstLiteral and EstOptimized are the cost model's size estimates
	// for the written and the composed tree (equal when nothing
	// rewrote). Heuristics for inspection and ordering, not promises.
	EstLiteral   float64
	EstOptimized float64
	// Leaves counts leaf references in the expression (duplicates
	// included).
	Leaves int
	// CSEHits counts compositions skipped because an identical
	// subtree (by canonical form) had already been composed within
	// this plan.
	CSEHits int
	// OpCosts records the wall time of every composition step the
	// build performed: one entry per leaf built ("leaf" — duplicate
	// references resolve once) and per operator application ("union",
	// "join", "project", "difference"). Peterfreund et al. 2019
	// predicts which operators blow up; these timings are how the
	// service confirms it per plan.
	OpCosts []OpCost

	root Expr       // the composed tree, for Explain
	cost *costModel // leaf metadata behind the estimates
}

// OpCost is the wall time of one composition step of a plan build.
type OpCost struct {
	Op    string `json:"op"`
	DurNs int64  `json:"duration_ns"`
}

// Build plans e with optimization on and the default difference
// budget — the configuration the service serves.
func Build(e Expr, r LeafResolver) (*Plan, error) {
	return BuildWith(e, r, Options{Optimize: true})
}

// BuildWith resolves every leaf of e through r, validates the tree
// (projections must keep only variables their operand binds and
// difference operands must bind equal variable sets — ErrUnbound
// otherwise), optionally optimizes it, and folds the result through
// the spanner algebra of Theorem 4.5. Identical subtrees compose
// once. Leaf-resolution errors pass through wrapped, so registry
// sentinels (registry.ErrNotFound, …) stay matchable with errors.Is.
//
// Validation runs on the tree as written, before any rewrite: an
// expression must succeed or fail identically whether or not the
// optimizer is on.
func BuildWith(e Expr, r LeafResolver, opts Options) (*Plan, error) {
	b := &builder{
		resolver: r,
		opts:     opts,
		resolved: map[string]Ref{},
		spanner:  map[string]*spanners.Spanner{},
		cost:     &costModel{leafMeta: map[string]leafMeta{}},
		cse:      map[string]*spanners.Spanner{},
	}
	pinned, err := b.resolveLeaves(e)
	if err != nil {
		return nil, err
	}
	if _, err := b.validate(pinned); err != nil {
		return nil, err
	}
	exec := pinned
	var rewrites []Rewrite
	if opts.Optimize {
		o := &optimizer{cost: b.cost}
		exec = o.optimize(pinned)
		rewrites = o.log
	}
	sp, err := b.compose(exec)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Spanner:      sp,
		Pinned:       pinned.Canonical(),
		Optimized:    exec.Canonical(),
		Rewrites:     rewrites,
		EstLiteral:   b.cost.est(pinned),
		EstOptimized: b.cost.est(exec),
		Leaves:       b.leaves,
		CSEHits:      b.cseHits,
		OpCosts:      b.costs,
		root:         exec,
		cost:         b.cost,
	}, nil
}

type builder struct {
	resolver LeafResolver
	opts     Options
	leaves   int
	costs    []OpCost
	cseHits  int

	resolved map[string]Ref               // written ref canonical -> pinned ref
	spanner  map[string]*spanners.Spanner // pinned ref canonical -> resolved leaf
	cost     *costModel                   // pinned ref canonical -> vars/states
	cse      map[string]*spanners.Spanner // subtree canonical -> composition
}

// timed runs one composition step and records its wall time.
func timed(b *builder, op string, f func() (*spanners.Spanner, error)) (*spanners.Spanner, error) {
	start := time.Now()
	v, err := f()
	b.costs = append(b.costs, OpCost{Op: op, DurNs: time.Since(start).Nanoseconds()})
	return v, err
}

// resolveLeaves rebuilds e with every leaf pinned to its resolved
// version, resolving each distinct written reference once.
func (b *builder) resolveLeaves(e Expr) (Expr, error) {
	switch n := e.(type) {
	case Ref:
		b.leaves++
		if pinned, ok := b.resolved[n.Canonical()]; ok {
			return pinned, nil
		}
		start := time.Now()
		sp, version, err := b.resolver.Resolve(n.Name, n.Version)
		b.costs = append(b.costs, OpCost{Op: "leaf", DurNs: time.Since(start).Nanoseconds()})
		if err != nil {
			return nil, fmt.Errorf("leaf %s: %w", n.Canonical(), err)
		}
		if sp.Automaton() == nil {
			return nil, fmt.Errorf("algebra: leaf %s resolved to a program-only spanner with no automaton", n.Canonical())
		}
		pinned := Ref{Name: n.Name, Version: version}
		b.resolved[n.Canonical()] = pinned
		b.spanner[pinned.Canonical()] = sp
		b.cost.leafMeta[pinned.Canonical()] = leafMeta{
			vars:   sp.Vars(),
			states: sp.Automaton().NumStates,
		}
		return pinned, nil

	case Union:
		args, err := b.resolveAll(n.Args)
		if err != nil {
			return nil, err
		}
		return Union{Args: args}, nil

	case Join:
		args, err := b.resolveAll(n.Args)
		if err != nil {
			return nil, err
		}
		return Join{Args: args}, nil

	case Difference:
		a, err := b.resolveLeaves(n.A)
		if err != nil {
			return nil, err
		}
		rhs, err := b.resolveLeaves(n.B)
		if err != nil {
			return nil, err
		}
		return Difference{A: a, B: rhs}, nil

	case Project:
		arg, err := b.resolveLeaves(n.Arg)
		if err != nil {
			return nil, err
		}
		return Project{Arg: arg, Vars: n.Vars}, nil

	default:
		return nil, fmt.Errorf("%w: unknown node type %T", ErrSyntax, e)
	}
}

func (b *builder) resolveAll(args []Expr) ([]Expr, error) {
	out := make([]Expr, len(args))
	for i, a := range args {
		r, err := b.resolveLeaves(a)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// validate checks variable schemas bottom-up on the pinned tree as
// written and returns the variable set each subtree binds.
func (b *builder) validate(e Expr) (map[spanners.Var]bool, error) {
	switch n := e.(type) {
	case Ref:
		return b.cost.varsOf(n), nil

	case Union:
		return b.validateAll(n.Args)

	case Join:
		return b.validateAll(n.Args)

	case Difference:
		av, err := b.validate(n.A)
		if err != nil {
			return nil, err
		}
		bv, err := b.validate(n.B)
		if err != nil {
			return nil, err
		}
		if !varSetEqual(sortedVars(av), bv) {
			return nil, fmt.Errorf("%w: difference operands must bind equal variable sets in %s (left binds %v, right binds %v)",
				ErrUnbound, n.Canonical(), sortedVars(av), sortedVars(bv))
		}
		return av, nil

	case Project:
		av, err := b.validate(n.Arg)
		if err != nil {
			return nil, err
		}
		for _, v := range n.Vars {
			if !av[v] {
				return nil, fmt.Errorf("%w: %q in %s (operand binds %v)",
					ErrUnbound, v, n.Canonical(), sortedVars(av))
			}
		}
		kept := map[spanners.Var]bool{}
		for _, v := range n.Vars {
			kept[v] = true
		}
		return kept, nil

	default:
		return nil, fmt.Errorf("%w: unknown node type %T", ErrSyntax, e)
	}
}

func (b *builder) validateAll(args []Expr) (map[spanners.Var]bool, error) {
	out := map[spanners.Var]bool{}
	for _, a := range args {
		av, err := b.validate(a)
		if err != nil {
			return nil, err
		}
		for v := range av {
			out[v] = true
		}
	}
	return out, nil
}

// compose folds the (validated, possibly optimized) tree through the
// spanner algebra, composing each distinct subtree once.
func (b *builder) compose(e Expr) (*spanners.Spanner, error) {
	key := e.Canonical()
	if sp, ok := b.cse[key]; ok {
		b.cseHits++
		return sp, nil
	}
	sp, err := b.composeNode(e)
	if err != nil {
		return nil, err
	}
	b.cse[key] = sp
	return sp, nil
}

func (b *builder) composeNode(e Expr) (*spanners.Spanner, error) {
	switch n := e.(type) {
	case Ref:
		return b.spanner[n.Canonical()], nil

	case Union:
		return b.fold("union", n.Args, spanners.Union)

	case Join:
		return b.fold("join", n.Args, spanners.Join)

	case Difference:
		left, err := b.compose(n.A)
		if err != nil {
			return nil, err
		}
		right, err := b.compose(n.B)
		if err != nil {
			return nil, err
		}
		sp, err := timed(b, "difference", func() (*spanners.Spanner, error) {
			return spanners.Difference(left, right, b.opts.DifferenceBudget)
		})
		switch {
		case errors.Is(err, program.ErrBudget):
			return nil, fmt.Errorf("%s: %w", n.Canonical(), err)
		case err != nil:
			// Otherwise the determinization ran out of states; surface
			// the package sentinel with the underlying cause chained.
			return nil, fmt.Errorf("%w in %s: %w", ErrBudget, n.Canonical(), err)
		}
		return sp, nil

	case Project:
		arg, err := b.compose(n.Arg)
		if err != nil {
			return nil, err
		}
		return timed(b, "project", func() (*spanners.Spanner, error) { return spanners.Project(arg, n.Vars...) })

	default:
		return nil, fmt.Errorf("%w: unknown node type %T", ErrSyntax, e)
	}
}

func (b *builder) fold(name string, args []Expr, op func(a, b *spanners.Spanner) (*spanners.Spanner, error)) (*spanners.Spanner, error) {
	var acc *spanners.Spanner
	for i, a := range args {
		sp, err := b.compose(a)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = sp
			continue
		}
		if acc, err = timed(b, name, func() (*spanners.Spanner, error) { return op(acc, sp) }); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Explain renders the plan for humans: the expression as written and
// as composed, the estimated costs, the rewrite log, and the composed
// plan tree with each node's variable set and size estimate. The
// output is deterministic for a given registry state (leaf versions
// are content-addressed), so tooling may snapshot it.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "expression: %s\n", p.Pinned)
	fmt.Fprintf(&sb, "optimized:  %s\n", p.Optimized)
	fmt.Fprintf(&sb, "estimated cost: %s -> %s\n", fmtEst(p.EstLiteral), fmtEst(p.EstOptimized))
	if len(p.Rewrites) == 0 {
		sb.WriteString("rewrites: none\n")
	} else {
		sb.WriteString("rewrites:\n")
		for _, r := range p.Rewrites {
			fmt.Fprintf(&sb, "  %s: %s => %s\n", r.Rule, r.Before, r.After)
		}
	}
	sb.WriteString("plan:\n")
	p.explainNode(&sb, p.root, 1)
	return sb.String()
}

func (p *Plan) explainNode(sb *strings.Builder, e Expr, depth int) {
	indent := strings.Repeat("  ", depth)
	vars := sortedVars(p.cost.varsOf(e))
	switch n := e.(type) {
	case Ref:
		meta := p.cost.leafMeta[n.Canonical()]
		fmt.Fprintf(sb, "%sref %s  vars=%v states=%d\n", indent, n.Canonical(), vars, meta.states)
	case Union:
		fmt.Fprintf(sb, "%sunion  vars=%v est=%s\n", indent, vars, fmtEst(p.cost.est(e)))
		for _, a := range n.Args {
			p.explainNode(sb, a, depth+1)
		}
	case Join:
		fmt.Fprintf(sb, "%sjoin  vars=%v est=%s\n", indent, vars, fmtEst(p.cost.est(e)))
		for _, a := range n.Args {
			p.explainNode(sb, a, depth+1)
		}
	case Difference:
		fmt.Fprintf(sb, "%sdifference  vars=%v est=%s\n", indent, vars, fmtEst(p.cost.est(e)))
		p.explainNode(sb, n.A, depth+1)
		p.explainNode(sb, n.B, depth+1)
	case Project:
		fmt.Fprintf(sb, "%sproject %v  vars=%v est=%s\n", indent, n.Vars, vars, fmtEst(p.cost.est(e)))
		p.explainNode(sb, n.Arg, depth+1)
	}
}

func fmtEst(v float64) string { return fmt.Sprintf("%.4g", v) }
