// Package algebra is the server-side spanner algebra: a small
// expression language whose operators are the closure operations of
// Theorem 4.5 — union, projection and join — plus the set difference
// that Peterfreund, Kimelfeld, Freydenberger & Kröll (2019) treat
// separately, and whose leaves are named entries of the persistent
// spanner registry. An expression such as
//
//	join(project(invoices@1a30376c9a64, buyer), union(sellers, sellers-eu@latest))
//
// composes registered spanners on the server without the client ever
// shipping an automaton: each leaf names a registry entry (optionally
// pinned to a content-addressed version), the planner recompiles the
// leaves from their manifests' sources (stored artifacts carry only
// the executable program, not the automaton the algebra needs), and
// the composed result is lowered through internal/program so algebra
// queries run on the same compiled execution core as everything else.
//
// The package is four small pieces:
//
//   - an AST (Expr and its node types) with a canonical rendering,
//   - a recursive-descent parser (Parse) producing typed errors,
//   - an optimizer (optimize.go) rewriting trees before lowering —
//     projection pushdown, join reordering, subexpression dedup —
//     every rule result-identical and pinned by the differential
//     suite in plan_quick_test.go,
//   - a planner (Build/BuildWith) that resolves leaves through a
//     LeafResolver, validates and optionally optimizes the tree, and
//     folds it through the spanner algebra of the root package;
//     RegistryResolver is the standard resolver over a registry
//     directory.
//
// Following Peterfreund, ten Cate, Fagin and Kimelfeld, "Complexity
// Bounds for Relational Algebra over Document Spanners" (2019), the
// operators are where the interesting complexity lives: union is
// linear, projection is exponential only in the dropped variables,
// join carries the paper's worst-case exponential blowup in the
// shared variables, and difference requires determinizing the right
// operand — worst-case exponential, hence budgeted. The planner
// composes eagerly and relies on the service layer to cache the
// composed program under the pinned canonical expression.
package algebra

import (
	"errors"
	"fmt"
	"strings"

	"spanners"
)

// Typed algebra errors, matched with errors.Is. Everything a hostile
// or mistaken expression can provoke maps onto one of these (or onto
// a registry error from leaf resolution, or onto program.ErrBudget
// when a composition is beyond the compiled-program budgets), so the
// HTTP layer can classify failures as client errors rather than 500s.
var (
	// ErrSyntax reports a malformed expression.
	ErrSyntax = errors.New("algebra: syntax error")
	// ErrUnbound reports a projection onto a variable its operand
	// cannot bind: π_V(S) requires V ⊆ Vars(S) here — silently
	// projecting onto nothing hides typos in variable names.
	ErrUnbound = errors.New("algebra: projected variable not bound by operand")
	// ErrDepth reports an expression nested beyond MaxDepth.
	ErrDepth = errors.New("algebra: expression nested too deeply")
	// ErrCycle reports registered algebra expressions that resolve
	// through themselves.
	ErrCycle = errors.New("algebra: cyclic reference between registered expressions")
	// ErrTooLarge reports an expression with more than MaxLeaves leaf
	// references.
	ErrTooLarge = errors.New("algebra: expression has too many leaves")
	// ErrBudget reports a difference whose right operand blew the
	// determinization state budget. Difference is the operator
	// Peterfreund et al. 2019 treat separately — complementing the
	// right operand is worst-case exponential — so the composition
	// runs under an explicit budget and fails typed instead of eating
	// the server's memory.
	ErrBudget = errors.New("algebra: difference determinization exceeded its state budget")
)

// MaxDepth bounds operator nesting, both in parsed expressions and
// through chains of registered algebra entries resolving one another.
const MaxDepth = 64

// MaxLeaves bounds the number of leaf references in one parsed
// expression. Composition cost grows with the operand count — the
// join product is the paper's worst-case exponential — and planning
// runs before the per-request extraction deadline applies, so the
// parser refuses expressions that could pin a worker on composition
// alone. Registered algebra entries recurse through their own parses,
// each under the same cap.
const MaxLeaves = 32

// LatestVersion is the explicit spelling of an unpinned reference:
// "name@latest" and bare "name" both resolve the registry's current
// version at plan time.
const LatestVersion = "latest"

// Expr is one node of an algebra expression tree.
type Expr interface {
	// Canonical renders the node in the normalized concrete syntax:
	// no whitespace, @latest elided. Canonical output re-parses to an
	// equal tree, and once every leaf is pinned (Pin) it is the cache
	// key under which the service stores the composed spanner.
	Canonical() string
}

// Ref is a leaf: a registry entry "name" or "name@version". An empty
// Version means latest-at-plan-time.
type Ref struct {
	Name    string
	Version string
}

// Canonical renders the reference, eliding an empty version.
func (r Ref) Canonical() string {
	if r.Version == "" {
		return r.Name
	}
	return r.Name + "@" + r.Version
}

// Union is the n-ary union ⟦A⟧_d ∪ ⟦B⟧_d ∪ … (Theorem 4.5).
type Union struct{ Args []Expr }

// Canonical renders union(a,b,…).
func (u Union) Canonical() string { return renderOp("union", u.Args, nil) }

// Join is the n-ary natural join ⟦A⟧_d ⋈ ⟦B⟧_d ⋈ … (Theorem 4.5),
// folded left to right.
type Join struct{ Args []Expr }

// Canonical renders join(a,b,…).
func (j Join) Canonical() string { return renderOp("join", j.Args, nil) }

// Difference is the binary set difference ⟦A⟧_d ∖ ⟦B⟧_d: the mappings
// A outputs that B does not, compared as partial mappings. Both
// operands must bind the same variable set (ErrUnbound otherwise) —
// differencing spanners of different schemas is almost always a typo,
// and relational convention requires union-compatible operands. The
// right operand is determinized under an explicit state budget
// (ErrBudget on exhaustion); see Peterfreund, Kimelfeld,
// Freydenberger & Kröll 2019 on why difference alone breaks the
// polynomial-delay guarantees the other operators keep.
type Difference struct{ A, B Expr }

// Canonical renders difference(a,b).
func (d Difference) Canonical() string { return renderOp("difference", []Expr{d.A, d.B}, nil) }

// Project is π_Vars(Arg) (Theorem 4.5): outputs restricted to Vars,
// every one of which the operand must be able to bind.
type Project struct {
	Arg  Expr
	Vars []spanners.Var
}

// Canonical renders project(arg,x,y,…).
func (p Project) Canonical() string {
	vars := make([]string, len(p.Vars))
	for i, v := range p.Vars {
		vars[i] = string(v)
	}
	return renderOp("project", []Expr{p.Arg}, vars)
}

func renderOp(op string, args []Expr, tail []string) string {
	var b strings.Builder
	b.WriteString(op)
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Canonical())
	}
	for _, t := range tail {
		b.WriteByte(',')
		b.WriteString(t)
	}
	b.WriteByte(')')
	return b.String()
}

// Refs returns every leaf reference of e, in expression order,
// duplicates preserved.
func Refs(e Expr) []Ref {
	var out []Ref
	walk(e, func(r Ref) Ref { out = append(out, r); return r })
	return out
}

// Pin returns a copy of e with every unpinned leaf resolved to a
// concrete version via resolve(name). Already-pinned leaves are kept
// verbatim: a pinned expression means the same bytes forever, which
// is what makes the canonical form a sound cache key and a stable
// source of truth for registered algebra artifacts.
func Pin(e Expr, resolve func(name string) (string, error)) (Expr, error) {
	var firstErr error
	pinned := walk(e, func(r Ref) Ref {
		if r.Version != "" || firstErr != nil {
			return r
		}
		v, err := resolve(r.Name)
		if err != nil {
			firstErr = fmt.Errorf("resolve %q: %w", r.Name, err)
			return r
		}
		r.Version = v
		return r
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return pinned, nil
}

// walk rebuilds e bottom-up, applying f to every leaf.
func walk(e Expr, f func(Ref) Ref) Expr {
	switch n := e.(type) {
	case Ref:
		return f(n)
	case Union:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = walk(a, f)
		}
		return Union{Args: args}
	case Join:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = walk(a, f)
		}
		return Join{Args: args}
	case Difference:
		return Difference{A: walk(n.A, f), B: walk(n.B, f)}
	case Project:
		return Project{Arg: walk(n.Arg, f), Vars: n.Vars}
	default:
		panic(fmt.Sprintf("algebra: unknown node type %T", e))
	}
}
