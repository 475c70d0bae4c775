package eval

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
	"spanners/internal/workload"
)

// This file is the differential property suite for the lazy-DFA
// layer: on the workload corpus, the DFA path, the superinstruction
// (fused-run / skip) path it contains, and the plain bitset path
// (ForceNoDFA) must produce the mapping sets, counts and decisions of
// the va.Mappings reference — including at the cache-budget-exhausted
// fallback boundary (a 2-state budget that flushes permanently) and
// at the edges of the variable-mask budget.

// workloadCorpus pairs expressions with documents from the workload
// generators: the land-registry rows of Table 1, web logs with the
// optional referer field, DNA motifs (an anchored literal chain that
// exercises fused runs), and a letter-heavy skip-loop document.
func workloadCorpus() []struct{ name, expr, doc string } {
	return []struct{ name, expr, doc string }{
		{
			"landregistry/seller-tax",
			`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`,
			workload.LandRegistry(workload.LandRegistryOptions{Rows: 6, TaxProb: 0.5, Seed: 21}),
		},
		{
			"weblog/method-path",
			`.*(x{GET|POST|PUT|DELETE} y{/[^ ]*} ).*`,
			workload.WebLog(workload.WebLogOptions{Lines: 4, ReferProb: 0.5, Seed: 22}),
		},
		{
			"dna/motif-anchored",
			`x{[ACGT]*}TAGGTACCy{[ACGT]*}`,
			workload.DNA(48, "TAGGTACC", 2, 23),
		},
		{
			"skip/letter-heavy",
			`.*ERROR x{[^\n]*}\n.*`,
			strings.Repeat("info line without trigger\n", 6) + "ERROR disk full\n",
		},
	}
}

// corpusEngines is engines() restricted to the auto-selected decision
// procedure (forced-FPT coverage lives in quick_test.go on short
// random documents).
func corpusEngines(t testing.TB, a *va.VA) map[string]*Engine {
	compiled := mustEngine(t, a)
	nodfa := mustEngine(t, a)
	nodfa.ForceNoDFA()
	tiny := mustEngine(t, a)
	tiny.UseDFA(program.NewDFA(tiny.Program(), 2))
	return map[string]*Engine{
		"compiled":         compiled,
		"compiled-nodfa":   nodfa,
		"compiled-tinydfa": tiny,
	}
}

func TestDifferentialDFAOnWorkloadCorpus(t *testing.T) {
	for _, tc := range workloadCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			a := va.FromRGX(rgx.MustParse(tc.expr))
			engs := corpusEngines(t, a)
			if !engs["compiled"].DFAEnabled() {
				t.Fatalf("DFA unexpectedly disabled for %q", tc.expr)
			}
			d := span.NewDocument(tc.doc)

			want := a.Mappings(d)
			wantCount := want.Len()
			wantMatch := wantCount > 0
			for name, eng := range engs {
				if got := eng.All(d); !got.Equal(want) {
					t.Fatalf("%s disagrees on mapping set: %d vs %d mappings",
						name, got.Len(), want.Len())
				}
				if got := eng.Count(d); got != wantCount {
					t.Fatalf("%s Count = %d, oracle %d", name, got, wantCount)
				}
				if got := eng.NonEmpty(d); got != wantMatch {
					t.Fatalf("%s NonEmpty = %v, oracle %v", name, got, wantMatch)
				}
			}
		})
	}
}

// TestDifferentialDFABudgetBoundary drives the 2-state budget hard
// enough that flushes and sweep fallbacks actually occur, and checks
// the results stay identical through the boundary.
func TestDifferentialDFABudgetBoundary(t *testing.T) {
	tc := workloadCorpus()[0]
	a := va.FromRGX(rgx.MustParse(tc.expr))
	ref := mustEngine(t, a)
	ref.ForceNoDFA()
	tiny := mustEngine(t, a)
	tinyDFA := program.NewDFA(tiny.Program(), 2)
	tiny.UseDFA(tinyDFA)

	docs := []string{
		tc.doc,
		workload.LandRegistry(workload.LandRegistryOptions{Rows: 3, TaxProb: 1, Seed: 24}),
		"no rows here",
		"",
	}
	for _, doc := range docs {
		d := span.NewDocument(doc)
		if got, want := tiny.All(d), ref.All(d); !got.Equal(want) {
			t.Fatalf("budget boundary diverged on %q: %d vs %d mappings", doc, got.Len(), want.Len())
		}
		if got, want := tiny.Count(d), ref.Count(d); got != want {
			t.Fatalf("budget boundary Count diverged on %q: %d vs %d", doc, got, want)
		}
	}
	st := tinyDFA.Stats()
	if st.Flushes == 0 {
		t.Fatalf("2-state budget never flushed: %+v", st)
	}
}

// TestDifferentialVariableCountBoundary pins the mask edges: a
// sequential spanner with 32, 33 (the first to use the upper half of
// each mask word) and 64 variables — at 64 every bit of both mask words in use — compiles
// and runs the DFA, every configuration (forced FPT included) agrees
// with the reference on mapping sets, counts and model checks, and 65
// variables is a typed ErrBudget refusal.
func TestDifferentialVariableCountBoundary(t *testing.T) {
	mk := func(k int) *va.VA {
		var sb strings.Builder
		for i := 0; i < k; i++ {
			// A few optional letters keep the output set > 1 (without
			// exploding it) and none break sequentiality.
			if i%8 == 1 {
				fmt.Fprintf(&sb, "(x%02d{b}|b)", i)
			} else if i%2 == 0 {
				fmt.Fprintf(&sb, "x%02d{a}", i)
			} else {
				fmt.Fprintf(&sb, "x%02d{b}", i)
			}
		}
		return va.FromRGX(rgx.MustParse(sb.String()))
	}

	for _, k := range []int{32, 33, program.MaxVars} {
		a := mk(k)
		doc := strings.Repeat("ab", (k+1)/2)[:k]
		d := span.NewDocument(doc)
		engs := corpusEngines(t, a)
		if e := engs["compiled"]; !e.DFAEnabled() || !e.Sequential() || len(e.Program().Vars) != k {
			t.Fatalf("k=%d: spanner should compile sequential with %d variables and run the DFA", k, k)
		}
		fpt := mustEngine(t, a)
		fpt.ForceFPT()
		want := a.Mappings(d)
		if want.Len() < 2 {
			t.Fatalf("k=%d: degenerate corpus, %d mappings", k, want.Len())
		}
		for name, eng := range engs {
			if got := eng.All(d); !got.Equal(want) {
				t.Fatalf("k=%d: %s disagrees: %d vs %d mappings", k, name, got.Len(), want.Len())
			}
			if got, wantN := eng.Count(d), want.Len(); got != wantN {
				t.Fatalf("k=%d: %s Count %d vs %d", k, name, got, wantN)
			}
		}
		engs["compiled-fpt"] = fpt
		for _, m := range want.Mappings() {
			for name, eng := range engs {
				if !eng.ModelCheck(d, m) {
					t.Fatalf("k=%d: %s rejects reference mapping %v", k, name, m)
				}
			}
		}
		// A span shifted off the document's letters must be refused.
		var bad span.Mapping
		for _, m := range want.Mappings() {
			bad = span.Mapping{}
			for v, s := range m {
				bad[v] = s
			}
			bad["x00"] = span.Sp(2, 3)
			break
		}
		if fpt.ModelCheck(d, bad) || engs["compiled"].ModelCheck(d, bad) {
			t.Fatalf("k=%d: misplaced mapping %v accepted", k, bad)
		}
	}

	if _, err := NewEngine(mk(program.MaxVars + 1)); !errors.Is(err, program.ErrBudget) {
		t.Fatalf("%d-variable spanner: got %v, want program.ErrBudget", program.MaxVars+1, err)
	}
}

// TestDFASweepsAliasedFrontiersAreSafe re-runs enumeration twice on
// the same engine and document: the second pass reuses interned
// frontiers from the first, which would corrupt results if anything
// in the enumerator mutated the aliased bitsets.
func TestDFASweepsAliasedFrontiersAreSafe(t *testing.T) {
	tc := workloadCorpus()[0]
	eng := mustCompileRGX(t, rgx.MustParse(tc.expr))
	d := span.NewDocument(tc.doc)
	first := eng.All(d)
	second := eng.All(d)
	if !first.Equal(second) {
		t.Fatalf("repeated enumeration diverged: %d vs %d mappings", first.Len(), second.Len())
	}
	if st := eng.DFAStats(); st.Hits == 0 {
		t.Fatalf("repeated enumeration produced no cache hits: %+v", st)
	}
}
