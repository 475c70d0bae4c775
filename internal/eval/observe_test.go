package eval

import (
	"testing"
	"time"

	"spanners/internal/obs"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// collectObserved runs EnumerateObserved collecting mappings, stage
// names and delay samples.
func collectObserved(e *Engine, d *span.Document) (*span.Set, map[string]int, int) {
	stages := map[string]int{}
	delays := 0
	o := &obs.StageObserver{
		Stage: func(name string, dur time.Duration) {
			if dur < 0 {
				panic("negative stage duration")
			}
			stages[name]++
		},
		Delay: func(time.Duration) { delays++ },
	}
	out := span.NewSet()
	e.EnumerateObserved(d, o, func(m span.Mapping) bool {
		out.Add(m)
		return true
	})
	return out, stages, delays
}

func TestEnumerateObservedMatchesEnumerate(t *testing.T) {
	cases := []struct {
		expr, doc string
	}{
		{"x{a*}y{b*}", "aaabbb"},                         // sequential, compiled
		{".*x{a+}.*", "bbabab"},                          // sequential with context
		{"(x{a})*", "a"},                                 // non-sequential → filtered path
		{"x{a*}(y{b+}|)", "aabb"},                        // optional variable (⊥ outputs)
		{".*(s:x{[^,\n]*},y{[^\n]*}\n).*", "a,b\nc,d\n"}, // realistic row pattern
	}
	for _, c := range cases {
		eng := mustCompileRGX(t, rgx.MustParse(c.expr))
		d := span.NewDocument(c.doc)

		want := eng.All(d)
		got, stages, delays := collectObserved(eng, d)
		if !got.Equal(want) {
			t.Errorf("%q on %q: observed %v, plain %v", c.expr, c.doc, got.Mappings(), want.Mappings())
		}
		if ref := eng.Automaton().Mappings(d); !got.Equal(ref) {
			t.Errorf("%q on %q: observed %v, reference %v", c.expr, c.doc, got.Mappings(), ref.Mappings())
		}
		if want.Len() > 0 && delays != want.Len() {
			t.Errorf("%q on %q: %d delay samples for %d mappings", c.expr, c.doc, delays, want.Len())
		}
		if stages[obs.StageEnumerate] != 1 {
			t.Errorf("%q: enumerate stage recorded %d times: %v", c.expr, stages[obs.StageEnumerate], stages)
		}
		if eng.Sequential() {
			if stages[obs.StageCoReachSweep] != 1 {
				t.Errorf("%q: sequential path stages = %v", c.expr, stages)
			}
		} else {
			for _, s := range []string{obs.StageEval, obs.StageForwardSweep, obs.StageCoReachSweep, obs.StageCandidateSweep} {
				if stages[s] != 1 {
					t.Errorf("%q: filtered path missing stage %s: %v", c.expr, s, stages)
				}
			}
		}
	}
}

func TestEnumerateObservedNilObserver(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse("x{a*}"))
	d := span.NewDocument("aa")
	want := eng.All(d)
	for _, o := range []*obs.StageObserver{nil, {}} {
		got := span.NewSet()
		eng.EnumerateObserved(d, o, func(m span.Mapping) bool {
			got.Add(m)
			return true
		})
		if !got.Equal(want) {
			t.Fatalf("observer %v: got %v want %v", o, got.Mappings(), want.Mappings())
		}
	}
}

func TestEnumerateObservedEmptyFiltered(t *testing.T) {
	// Non-sequential, no match: the eval stage fires and the walk stops.
	eng := mustCompileRGX(t, rgx.MustParse("(x{a})*b"))
	d := span.NewDocument("c")
	_, stages, delays := collectObserved(eng, d)
	if delays != 0 {
		t.Fatalf("delays = %d on empty output", delays)
	}
	if stages[obs.StageEval] != 1 || stages[obs.StageEnumerate] != 0 {
		t.Fatalf("stages on empty output = %v", stages)
	}
}

func TestEnumerateObservedEarlyStop(t *testing.T) {
	eng := mustCompileRGX(t, rgx.MustParse("x{a*}y{a*}"))
	d := span.NewDocument("aaaa")
	n := 0
	eng.EnumerateObserved(d, &obs.StageObserver{Delay: func(time.Duration) {}}, func(span.Mapping) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop delivered %d mappings, want 3", n)
	}
}
