package eval

import (
	"math/rand"
	"sort"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/runeclass"
	"spanners/internal/span"
	"spanners/internal/va"
)

// This file is the differential property suite for the execution
// core: on randomized RGX expressions and documents, every engine
// configuration must agree with the va.Mappings reference run
// semantics — for both decision engines, for enumeration (set and
// canonical order), for counting, and for Eval under random partial
// constraints. It extends the randomExpr generator of
// enumerate_test.go.

// mustEngine compiles a into an engine, failing the test on a budget
// refusal.
func mustEngine(t testing.TB, a *va.VA) *Engine {
	t.Helper()
	e, err := NewEngine(a)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// mustCompileRGX is mustEngine over a parsed expression.
func mustCompileRGX(t testing.TB, n rgx.Node) *Engine {
	t.Helper()
	return mustEngine(t, va.FromRGX(n))
}

// refEval decides Eval against a reference mapping set: some output
// respects every constraint of mu.
func refEval(want *span.Set, mu span.Extended) bool {
	for _, m := range want.Mappings() {
		if mu.SatisfiedBy(m) {
			return true
		}
	}
	return false
}

// canonicalOrder sorts a reference mapping set into the documented
// enumeration order of the sequential walk: mappings compare by their
// boundary operation sets at positions 1, 2, …, |d|+1; at the first
// differing boundary a set that fires operations precedes the empty
// one, and non-empty sets compare by their sorted token string ("o"
// or "c" plus the variable name, each followed by ";").
func canonicalOrder(want *span.Set, n int) []string {
	choice := func(m span.Mapping, pos int) string {
		var toks []string
		for v, s := range m {
			if s.Start == pos {
				toks = append(toks, "o"+string(v))
			}
			if s.End == pos {
				toks = append(toks, "c"+string(v))
			}
		}
		sort.Strings(toks)
		k := ""
		for _, t := range toks {
			k += t + ";"
		}
		return k
	}
	ms := want.Mappings()
	sort.SliceStable(ms, func(i, j int) bool {
		for pos := 1; pos <= n+1; pos++ {
			a, b := choice(ms[i], pos), choice(ms[j], pos)
			if a == b {
				continue
			}
			if (a == "") != (b == "") {
				return b == ""
			}
			return a < b
		}
		return false
	})
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	return out
}

// engines builds the engine configurations under test from one
// automaton: {compiled (DFA on), compiled without DFA, compiled with
// a 2-state DFA budget (permanent flush/fallback boundary)} ×
// {auto-selected, forced FPT}.
func engines(t testing.TB, a *va.VA) map[string]*Engine {
	compiled := mustEngine(t, a)
	nodfa := mustEngine(t, a)
	nodfa.ForceNoDFA()
	tiny := mustEngine(t, a)
	tiny.UseDFA(program.NewDFA(tiny.Program(), 2))
	cFPT := mustEngine(t, a)
	cFPT.ForceFPT()
	tFPT := mustEngine(t, a)
	tFPT.ForceFPT()
	tFPT.UseDFA(program.NewDFA(tFPT.Program(), 2))
	return map[string]*Engine{
		"compiled":         compiled,
		"compiled-nodfa":   nodfa,
		"compiled-tinydfa": tiny,
		"compiled-fpt":     cFPT,
		"tinydfa-fpt":      tFPT,
	}
}

// randomDoc draws a short document over {a, b}.
func randomDoc(rng *rand.Rand) string {
	n := rng.Intn(5)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + rng.Intn(2))
	}
	return string(buf)
}

func TestDifferentialEnginesVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 150; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		engs := engines(t, a)
		for _, text := range []string{"", "a", "b", randomDoc(rng), randomDoc(rng)} {
			d := span.NewDocument(text)
			want := a.Mappings(d) // reference run semantics
			for name, eng := range engs {
				got := eng.All(d)
				if !got.Equal(want) {
					t.Fatalf("trial %d: %s engine disagrees with reference on %v / %q:\ngot  %v\nwant %v",
						trial, name, n, text, got.Mappings(), want.Mappings())
				}
			}
		}
	}
}

// randomExtended draws a partial constraint over {x, y}: each variable
// independently free, pinned to a random (possibly invalid-for-the-
// language) span, or ⊥.
func randomExtended(rng *rand.Rand, n int) span.Extended {
	mu := span.Extended{}
	for _, v := range []span.Var{"x", "y"} {
		switch rng.Intn(3) {
		case 0:
			// free
		case 1:
			s := 1 + rng.Intn(n+1)
			e := s + rng.Intn(n+2-s)
			mu = mu.With(v, span.Assigned(span.Sp(s, e)))
		case 2:
			mu = mu.With(v, span.Unassigned())
		}
	}
	return mu
}

func TestDifferentialEvalUnderRandomConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 120; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		engs := engines(t, a)
		text := randomDoc(rng)
		d := span.NewDocument(text)
		ref := a.Mappings(d)
		for probe := 0; probe < 6; probe++ {
			mu := randomExtended(rng, d.Len())
			want := refEval(ref, mu)
			for name, eng := range engs {
				if got := eng.Eval(d, mu); got != want {
					t.Fatalf("trial %d: Eval disagreement (%s=%v, reference=%v) on %v / %q / %v",
						trial, name, got, want, n, text, mu)
				}
			}
		}
	}
}

// TestDifferentialEnumerationOrder: on sequential automata every
// engine configuration must emit the reference mappings in the
// canonical order, not just the same set — callers observe streaming
// order.
func TestDifferentialEnumerationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	checked := 0
	for trial := 0; trial < 300 && checked < 80; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		eng := mustEngine(t, a)
		if !eng.Sequential() {
			continue
		}
		checked++
		nodfa := mustEngine(t, a)
		nodfa.ForceNoDFA()
		for _, text := range []string{"", "ab", randomDoc(rng)} {
			d := span.NewDocument(text)
			want := canonicalOrder(a.Mappings(d), d.Len())
			for name, e := range map[string]*Engine{"compiled": eng, "compiled-nodfa": nodfa} {
				var got []string
				e.Enumerate(d, func(m span.Mapping) bool { got = append(got, m.Key()); return true })
				if len(got) != len(want) {
					t.Fatalf("trial %d: %s %d vs %d outputs on %v / %q", trial, name, len(got), len(want), n, text)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: %s order diverges at %d on %v / %q:\ngot  %v\nwant %v",
							trial, name, i, n, text, got, want)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("generator produced no sequential automata")
	}
}

// TestDifferentialCount: the counting DP agrees with the reference.
func TestDifferentialCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2029))
	for trial := 0; trial < 80; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		eng := mustEngine(t, a)
		d := span.NewDocument(randomDoc(rng))
		if got, want := eng.Count(d), a.Mappings(d).Len(); got != want {
			t.Fatalf("trial %d: Count %d vs reference %d on %v / %q",
				trial, got, want, n, d.Text())
		}
	}
}

// TestDifferentialOnRandomAutomata drives the same comparison on raw
// random automata (including non-sequential, junk-transition ones)
// rather than Thompson compilations.
func TestDifferentialOnRandomAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(2030))
	for trial := 0; trial < 100; trial++ {
		a := randomJunkVA(rng, 5, 9)
		engs := engines(t, a)
		for _, text := range []string{"", "a", "ab", "ba"} {
			d := span.NewDocument(text)
			want := a.Mappings(d)
			for name, eng := range engs {
				got := eng.All(d)
				if !got.Equal(want) {
					t.Fatalf("trial %d: %s engine disagrees with reference on %q:\ngot  %v\nwant %v\n%s",
						trial, name, text, got.Mappings(), want.Mappings(), a)
				}
			}
		}
	}
}

// randomJunkVA mirrors va's randomVA test helper: arbitrary structure,
// no discipline guarantees.
func randomJunkVA(rng *rand.Rand, states, transitions int) *va.VA {
	a := va.New(states, 0, states-1)
	vars := []span.Var{"x", "y"}
	for i := 0; i < transitions; i++ {
		from, to := rng.Intn(states), rng.Intn(states)
		switch rng.Intn(4) {
		case 0:
			a.AddEps(from, to)
		case 1:
			a.AddLetter(from, to, runeclass.Single(rune('a'+rng.Intn(2))))
		case 2:
			a.AddOpen(from, to, vars[rng.Intn(2)])
		case 3:
			a.AddClose(from, to, vars[rng.Intn(2)])
		}
	}
	return a
}
