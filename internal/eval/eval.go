// Package eval implements the evaluation problems of Section 5 for
// RGX formulas and variable-set automata under the mapping semantics:
//
//   - Eval[L]: given γ, a document d and an extended mapping µ
//     (variables constrained to spans or to ⊥), decide whether some
//     µ' ⊇ µ is in ⟦γ⟧_d,
//   - ModelCheck[L]: decide µ ∈ ⟦γ⟧_d,
//   - NonEmp[L]: decide ⟦γ⟧_d ≠ ∅, and
//   - polynomial-delay enumeration of ⟦γ⟧_d via Eval (Algorithm 2,
//     Theorem 5.1).
//
// Two decision engines back these: for sequential automata the
// PTIME algorithm of Theorem 5.7, which coalesces the constrained
// variable operations into per-boundary obligation sets and then runs
// an NFA-style simulation; for arbitrary automata a reachability over
// (state, per-variable status) configurations that is fixed-parameter
// tractable in the number of variables (Theorem 5.10). The engine
// picks automatically, so Eval is PTIME exactly on the fragments the
// paper proves tractable and degrades gracefully elsewhere.
//
// Both engines execute the compiled form of the automaton: NewEngine
// lowers the VA through internal/program into a flat ε-free
// instruction table (dense states, rune equivalence classes,
// bit-packed variable operations, bitset frontiers), and the
// algorithms in compiled.go run on those tables. There is no other
// evaluation path: an automaton the compiler refuses (more than
// program.MaxVars variables, oversized dispatch tables) makes
// NewEngine fail with program.ErrBudget.
package eval

import (
	"sort"
	"sync"
	"sync/atomic"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// Engine evaluates one automaton over documents. It is immutable
// after construction and safe for concurrent use.
type Engine struct {
	a          *va.VA
	vars       []span.Var
	varSet     map[span.Var]bool
	sequential bool

	// prog is the compiled execution core.
	prog *program.Program

	// dfa is the lazy-DFA transition cache layered over prog — shared
	// with every other engine executing the same program; nodfa forces
	// plain bitset stepping instead (a differential-oracle switch).
	dfa   *program.DFA
	nodfa bool

	// noprefilter disables the required-literal prefilter; nomemo
	// disables the boundary-emission memo — both are differential-
	// oracle switches mirroring ForceNoDFA. bmemo is the engine's
	// bounded emission cache, created lazily with memoBudget (0 means
	// DefaultBoundaryMemoBudget).
	noprefilter bool
	nomemo      bool
	memoBudget  int
	bmemoOnce   sync.Once
	bmemo       atomic.Pointer[boundaryMemo]

	// opReachBits marks the states that can reach an op edge (walk.go).
	opReachOnce sync.Once
	opReachBits program.Bits
}

// NewEngine wraps an automaton, detecting once whether the sequential
// fast path applies and lowering the automaton into its compiled
// program form. It fails with an error wrapping program.ErrBudget when
// the automaton is beyond the compiler's budgets. The automaton must
// not be mutated afterwards.
func NewEngine(a *va.VA) (*Engine, error) {
	p, err := program.Compile(a)
	if err != nil {
		return nil, err
	}
	e := newEngine(p, a.IsSequential(), a.Vars())
	e.a = a
	return e, nil
}

// CompileRGX compiles a variable regex and wraps it in an engine.
func CompileRGX(n rgx.Node) (*Engine, error) { return NewEngine(va.FromRGX(n)) }

// FromProgram wraps an already-compiled program — typically decoded
// from a registry artifact — as an engine, skipping the parse →
// decompose → VA-compile pipeline entirely. The engine has no
// automaton (Automaton returns nil), but every evaluation path runs,
// because the compiled algorithms never consult the automaton.
// sequential selects the PTIME engine exactly as va.IsSequential
// would have on the source automaton; callers must pass the value
// recorded when the program was built.
func FromProgram(p *program.Program, sequential bool) *Engine {
	return newEngine(p, sequential, append([]span.Var(nil), p.Vars...))
}

func newEngine(p *program.Program, sequential bool, vars []span.Var) *Engine {
	e := &Engine{
		vars:       vars,
		varSet:     make(map[span.Var]bool, len(vars)),
		sequential: sequential,
		prog:       p,
		dfa:        p.DFA(),
	}
	for _, v := range vars {
		e.varSet[v] = true
	}
	return e
}

// Program returns the compiled program the engine executes.
func (e *Engine) Program() *program.Program { return e.prog }

// Automaton returns the underlying automaton.
func (e *Engine) Automaton() *va.VA { return e.a }

// Vars returns the variables the underlying automaton can assign.
func (e *Engine) Vars() []span.Var { return append([]span.Var(nil), e.vars...) }

// Sequential reports whether the engine runs the PTIME algorithm of
// Theorem 5.7 (true) or the FPT fallback of Theorem 5.10 (false).
func (e *Engine) Sequential() bool { return e.sequential }

// ForceFPT downgrades the engine to the general FPT algorithm even on
// sequential automata. It exists for the ablation benchmarks and for
// differential testing of the two engines; production callers should
// never need it.
func (e *Engine) ForceFPT() { e.sequential = false }

// ForceNoDFA downgrades the engine to plain bitset stepping instead of
// the program's lazy-DFA cache. It is a differential-oracle switch for
// head-to-head benchmarks and property tests; production callers
// should never need it.
func (e *Engine) ForceNoDFA() { e.nodfa = true }

// UseDFA replaces the engine's DFA cache — tests use it to install a
// tiny-budget cache and probe the budget-exhausted fallback boundary.
// It must be called before the engine evaluates anything.
func (e *Engine) UseDFA(d *program.DFA) { e.dfa = d }

// DFAEnabled reports whether evaluation consults the lazy-DFA cache.
func (e *Engine) DFAEnabled() bool { return !e.nodfa }

// ForceNoPrefilter disables the required-literal prefilter, keeping
// every other DFA-layer accelerator. A differential-oracle switch for
// head-to-head benchmarks and property tests.
func (e *Engine) ForceNoPrefilter() { e.noprefilter = true }

// ForceNoBoundaryMemo disables the boundary-emission memo, keeping
// every other DFA-layer accelerator. A differential-oracle switch for
// head-to-head benchmarks and property tests.
func (e *Engine) ForceNoBoundaryMemo() { e.nomemo = true }

// SetBoundaryMemoBudget overrides the boundary-emission memo's entry
// budget — tests use tiny budgets to probe the flush discipline. It
// must be called before the engine enumerates or counts anything.
func (e *Engine) SetBoundaryMemoBudget(n int) { e.memoBudget = n }

// boundaryMemo returns the engine's emission cache, created on first
// use.
func (e *Engine) boundaryMemo() *boundaryMemo {
	e.bmemoOnce.Do(func() {
		b := e.memoBudget
		if b == 0 {
			b = DefaultBoundaryMemoBudget
		}
		e.bmemo.Store(newBoundaryMemo(b))
	})
	return e.bmemo.Load()
}

// BoundaryMemoStats returns the counters of the engine's
// boundary-emission memo; ok is false when no walk has created it
// yet (or memoization cannot run on this engine). Safe to call while
// walks run.
func (e *Engine) BoundaryMemoStats() (BoundaryMemoStats, bool) {
	m := e.bmemo.Load()
	if m == nil {
		return BoundaryMemoStats{}, false
	}
	return m.stats(), true
}

// Prefilter returns the engine's required-literal prefilter, nil
// when the program has none.
func (e *Engine) Prefilter() *program.Prefilter { return e.prog.Prefilter() }

// prefilterRejects reports whether the required-literal prefilter
// proves the spanner's output on d empty: some mandatory literal is
// absent, so no run accepts under any constraint. Counted on the
// engine's DFA cache.
func (e *Engine) prefilterRejects(d *span.Document) bool {
	if !e.DFAEnabled() || e.noprefilter {
		return false
	}
	pf := e.prog.Prefilter()
	if pf == nil {
		return false
	}
	e.dfa.NotePrefilterCheck()
	if pf.AllPresent(d.Text()) {
		return false
	}
	e.dfa.NotePrefilterPrune()
	return true
}

// AllDFAStats snapshots the engine's shared permissive cache plus the
// program's constrained-cache family, for service-level aggregation.
func (e *Engine) AllDFAStats() []program.DFAStats {
	out := []program.DFAStats{e.dfa.Stats()}
	for _, d := range e.prog.ConstrainedDFAs() {
		out = append(out, d.Stats())
	}
	return out
}

// DFAStats returns the counters of the engine's DFA cache.
func (e *Engine) DFAStats() program.DFAStats { return e.dfa.Stats() }

// DFA returns the engine's lazy-DFA cache. Callers use it to persist
// (Encode) or seed (WarmFromArtifact) the cache.
func (e *Engine) DFA() *program.DFA { return e.dfa }

// ProgramStats returns the compiled program's statistics.
func (e *Engine) ProgramStats() program.Stats { return e.prog.Stats() }

// Eval decides the Eval[L] problem: does some µ' ⊇ µ belong to
// ⟦A⟧_d? Constraints on variables the automaton cannot assign make
// the answer false when they demand a span and are ignored when they
// demand ⊥.
func (e *Engine) Eval(d *span.Document, mu span.Extended) bool {
	n := d.Len()
	for v, o := range mu {
		if o.Bottom {
			continue
		}
		if !e.varSet[v] {
			return false // demanded span on an unassignable variable
		}
		if !o.Span.Valid(n) {
			return false
		}
	}
	if e.sequential {
		return e.evalSeqProg(d, mu)
	}
	return e.evalFPTProg(d, mu)
}

// NonEmpty decides NonEmp[L]: ⟦A⟧_d ≠ ∅.
func (e *Engine) NonEmpty(d *span.Document) bool {
	return e.Eval(d, span.Extended{})
}

// ModelCheck decides µ ∈ ⟦A⟧_d: the completion must assign exactly
// dom(µ), so every other automaton variable is constrained to ⊥.
func (e *Engine) ModelCheck(d *span.Document, m span.Mapping) bool {
	return e.Eval(d, span.FromMapping(m, e.vars))
}

// Enumerate streams every mapping of ⟦A⟧_d to yield, stopping early
// if yield returns false, with polynomial delay whenever the paper
// proves it possible (Theorem 5.1 + 5.7). Three strategies exist:
//
//   - sequential automata use the boundary walk of walk.go, whose
//     every branch provably yields output, in time linear in |d| plus
//     the output (amortized);
//   - other automata fall back to EnumerateFiltered, Algorithm 2 with
//     a reachability prefilter on candidate spans;
//   - EnumerateOracle is the paper's Algorithm 2 verbatim, kept for
//     the ablation benchmarks.
//
// All three emit the same mapping set; orders differ between the
// direct and oracle strategies but each is deterministic.
func (e *Engine) Enumerate(d *span.Document, yield func(span.Mapping) bool) {
	if e.sequential {
		if !e.prefilterRejects(d) {
			e.enumerateSequentialProgFrom(d, e.backwardReachProg(d), yield)
		}
		return
	}
	e.EnumerateFiltered(d, yield)
}

// Count returns |⟦A⟧_d|, the number of distinct output mappings. For
// sequential automata it is a dynamic program over the enumeration
// walk's (position, state set) DAG — walk branches correspond
// bijectively to mappings, so nothing is materialized. Non-sequential
// automata count by enumeration.
func (e *Engine) Count(d *span.Document) int {
	if !e.sequential {
		n := 0
		e.Enumerate(d, func(span.Mapping) bool { n++; return true })
		return n
	}
	if e.prefilterRejects(d) {
		return 0
	}
	w := e.newSeqWalk(d, 1, d.Len()+1, false, e.backwardReachProg(d)[1:])
	defer w.done()
	return w.count(w.root(nil))
}

// EnumerateFiltered implements Algorithm 2 with a candidate-span
// prefilter: instead of probing all (|d|²+1)/2 spans per variable, a
// reachability analysis narrows each variable to the spans some
// letter-consistent run could assign; the Eval oracle then validates
// each candidate exactly as in the paper, so the delay bound is
// unchanged while typical anchored patterns get near-linear probes.
// Variables are fixed in sorted order, candidate spans in
// lexicographic order, ⊥ last.
func (e *Engine) EnumerateFiltered(d *span.Document, yield func(span.Mapping) bool) {
	if !e.Eval(d, span.Extended{}) {
		return
	}
	e.enumerateFilteredFrom(d, e.candidateSpansProgFrom(d, e.forwardReachProg(d), e.backwardReachProg(d)), yield)
}

// enumerateFilteredFrom is the probing walk of EnumerateFiltered with
// the emptiness check and candidate sweep hoisted out, so the observed
// path can time the three phases as separate stages.
func (e *Engine) enumerateFilteredFrom(d *span.Document, candidates map[span.Var][]span.Span, yield func(span.Mapping) bool) {
	var rec func(mu span.Extended, rest []span.Var) bool
	rec = func(mu span.Extended, rest []span.Var) bool {
		if len(rest) == 0 {
			return yield(mu.Mapping())
		}
		x := rest[0]
		for _, s := range candidates[x] {
			next := mu.With(x, span.Assigned(s))
			if e.Eval(d, next) {
				if !rec(next, rest[1:]) {
					return false
				}
			}
		}
		next := mu.With(x, span.Unassigned())
		if e.Eval(d, next) {
			if !rec(next, rest[1:]) {
				return false
			}
		}
		return true
	}
	vars := append([]span.Var(nil), e.vars...)
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	rec(span.Extended{}, vars)
}

// EnumerateOracle is the paper's Algorithm 2 verbatim: every span of
// the document (plus ⊥) is probed for every variable through the Eval
// oracle, with no prefilter. It exists to measure the unoptimized
// polynomial-delay bound; Enumerate is the practical variant.
func (e *Engine) EnumerateOracle(d *span.Document, yield func(span.Mapping) bool) {
	if !e.Eval(d, span.Extended{}) {
		return
	}
	spans, all := d.Spans(), make(map[span.Var][]span.Span, len(e.vars))
	for _, x := range e.vars {
		all[x] = spans
	}
	e.enumerateFilteredFrom(d, all, yield)
}

// All collects the complete output set ⟦A⟧_d. The result can be
// exponentially large in the number of variables.
func (e *Engine) All(d *span.Document) *span.Set {
	out := span.NewSet()
	e.Enumerate(d, func(m span.Mapping) bool {
		out.Add(m)
		return true
	})
	return out
}
