package eval

import (
	"strings"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/workload"
)

// These tests pin the shape of the sequential walk by its own counters
// — letter steps and DFS nodes — rather than by timing, so they hold
// on any machine.

// walkEnumerate runs the Enumerate walk on d and returns its mappings
// and counters.
func walkEnumerate(e *Engine, d *span.Document) (ms []span.Mapping, steps, nodes int) {
	w := e.newSeqWalk(d, 1, d.Len()+1, false, e.backwardReachProg(d)[1:])
	defer w.done()
	w.visit(w.root(nil), func(m span.Mapping) bool {
		ms = append(ms, m)
		return true
	})
	return ms, w.steps, w.nodes
}

// TestWalkLinearOnServedSpanners doubles the document under the served
// web-log and seller spanners: letter steps and nodes must grow
// linearly (ratio ≤ 2.2), steps stay a small multiple of |d|, and the
// walk must reproduce Enumerate and Count exactly.
func TestWalkLinearOnServedSpanners(t *testing.T) {
	cases := []struct {
		name, expr string
		doc        func(lines int) string
	}{
		{"weblog-line",
			`.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`,
			func(lines int) string {
				return workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.35, Seed: 5})
			}},
		{"seller",
			`.*(Seller: name{[^,\n]*}, ID(id{\d*})(, \$tax{[^\n]*}|)\n).*`,
			func(lines int) string {
				return workload.LandRegistry(workload.LandRegistryOptions{Rows: lines, TaxProb: 0.5, Seed: 5})
			}},
	}
	for _, c := range cases {
		for _, mode := range []string{"dfa", "nodfa"} {
			e := mustCompileRGX(t, rgx.MustParse(c.expr))
			if mode == "nodfa" {
				e.ForceNoDFA()
			}
			var steps, nodes [2]int
			for i, lines := range []int{128, 256} {
				d := span.NewDocument(c.doc(lines))
				ms, s, n := walkEnumerate(e, d)
				steps[i], nodes[i] = s, n
				if len(ms) == 0 {
					t.Fatalf("%s/%s: no mappings on %d lines", c.name, mode, lines)
				}
				if got := e.Count(d); got != len(ms) {
					t.Errorf("%s/%s: Count = %d, walk emitted %d", c.name, mode, got, len(ms))
				}
				var ref []span.Mapping
				e.Enumerate(d, func(m span.Mapping) bool { ref = append(ref, m); return true })
				if len(ref) != len(ms) {
					t.Fatalf("%s/%s: Enumerate = %d mappings, walk %d", c.name, mode, len(ref), len(ms))
				}
				for j := range ref {
					if ref[j].Key() != ms[j].Key() {
						t.Fatalf("%s/%s: mapping %d: Enumerate %v, walk %v", c.name, mode, j, ref[j], ms[j])
					}
				}
				if s > 4*d.Len() {
					t.Errorf("%s/%s: %d letter steps on |d|=%d, want ≤ 4|d|", c.name, mode, s, d.Len())
				}
				if n > 8*len(ms) {
					t.Errorf("%s/%s: %d nodes for %d mappings, want ≤ 8 per mapping", c.name, mode, n, len(ms))
				}
			}
			if r := float64(steps[1]) / float64(steps[0]); r > 2.2 {
				t.Errorf("%s/%s: steps 2|d|/|d| = %d/%d = %.2f, want ≤ 2.2", c.name, mode, steps[1], steps[0], r)
			}
			if r := float64(nodes[1]) / float64(nodes[0]); r > 2.2 {
				t.Errorf("%s/%s: nodes 2|d|/|d| = %d/%d = %.2f, want ≤ 2.2", c.name, mode, nodes[1], nodes[0], r)
			}
		}
	}
}

// TestWalkQuadraticOutput runs spanners whose output is quadratic in
// |d|: Count and Enumerate agree with the va.Mappings reference on a
// small document and with the closed form on a larger one, where the
// letter steps stay linear in |d| although the output is not.
func TestWalkQuadraticOutput(t *testing.T) {
	cases := []struct {
		expr string
		doc  func(n int) string
		want func(n int) int
	}{
		{`.*x{a}.*y{b}.*`,
			func(n int) string { return strings.Repeat("a", n) + strings.Repeat("b", n) },
			func(n int) int { return n * n }},
		{`.*x{a}.*y{a}.*`,
			func(n int) string { return strings.Repeat("a", n) },
			func(n int) int { return n * (n - 1) / 2 }},
	}
	for _, c := range cases {
		e := mustCompileRGX(t, rgx.MustParse(c.expr))
		small := span.NewDocument(c.doc(6))
		want := e.Automaton().Mappings(small)
		got := e.All(small)
		if !got.Equal(want) || e.Count(small) != want.Len() {
			t.Fatalf("%s: Enumerate %v, Count %d, reference %v", c.expr, got.Mappings(), e.Count(small), want.Mappings())
		}
		n := 150
		d := span.NewDocument(c.doc(n))
		ms, steps, _ := walkEnumerate(e, d)
		if len(ms) != c.want(n) || e.Count(d) != c.want(n) {
			t.Fatalf("%s: Enumerate %d, Count %d, want %d", c.expr, len(ms), e.Count(d), c.want(n))
		}
		// A handful of distinct sets per position, each stepped once,
		// however many histories pass through them.
		if steps > 10*d.Len() {
			t.Errorf("%s: %d letter steps for |d|=%d and %d mappings, want ≤ 10|d|", c.expr, steps, d.Len(), len(ms))
		}
	}
}

// TestWalkConvergingHistories has two histories — x or y around the
// first letter — reach the same (position, set) pair with ops still
// ahead. The second history must take the first one's memoized
// landing instead of re-stepping the stretch, and both mappings must
// come out.
func TestWalkConvergingHistories(t *testing.T) {
	e := mustCompileRGX(t, rgx.MustParse(`(x{a}|y{a})b*z{c}`))
	stretch := 40
	d := span.NewDocument("a" + strings.Repeat("b", stretch) + "c")
	ms, steps, _ := walkEnumerate(e, d)
	end := stretch + 2
	want := []span.Mapping{
		{"x": span.Sp(1, 2), "z": span.Sp(end, end+1)},
		{"y": span.Sp(1, 2), "z": span.Sp(end, end+1)},
	}
	if len(ms) != len(want) {
		t.Fatalf("mappings %v, want %v", ms, want)
	}
	for i := range want {
		if ms[i].Key() != want[i].Key() {
			t.Fatalf("mapping %d = %v, want %v", i, ms[i], want[i])
		}
	}
	// One pass over the b stretch plus the letters around it; without
	// the memo the second history would step the stretch again.
	if steps > stretch+8 {
		t.Errorf("%d letter steps over a %d-letter stretch: converged history re-stepped it", steps, stretch)
	}
	if got := e.Count(d); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

// TestWalkFirstMappingBeforeSuffix checks the ops-free shortcut: once
// a branch's set can fire nothing more, its mapping is yielded without
// walking the rest of the document.
func TestWalkFirstMappingBeforeSuffix(t *testing.T) {
	for _, mode := range []string{"dfa", "nodfa"} {
		e := mustCompileRGX(t, rgx.MustParse(`x{a}.*`))
		if mode == "nodfa" {
			e.ForceNoDFA()
		}
		d := span.NewDocument("a" + strings.Repeat("b", 5000))
		w := e.newSeqWalk(d, 1, d.Len()+1, false, e.backwardReachProg(d)[1:])
		stepsAtFirst := -1
		w.visit(w.root(nil), func(m span.Mapping) bool {
			if stepsAtFirst < 0 {
				stepsAtFirst = w.steps
			}
			if m.Key() != (span.Mapping{"x": span.Sp(1, 2)}).Key() {
				t.Errorf("%s: mapping %v", mode, m)
			}
			return true
		})
		if stepsAtFirst < 0 || stepsAtFirst > 2 || w.steps > 2 {
			t.Errorf("%s: first mapping after %d letter steps, %d in all; want ≤ 2 on |d|=%d", mode, stepsAtFirst, w.steps, d.Len())
		}
		w.done()
	}
}
