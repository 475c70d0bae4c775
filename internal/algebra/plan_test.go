package algebra

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spanners"
	"spanners/internal/registry"
)

// mapResolver serves leaves from a fixed map, versioning everything
// as vvvvvvvvvvvv.
type mapResolver map[string]*spanners.Spanner

func (m mapResolver) Resolve(name, version string) (*spanners.Spanner, string, error) {
	sp, ok := m[name]
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", registry.ErrNotFound, name)
	}
	return sp, "vvvvvvvvvvvv", nil
}

func mappings(sp *spanners.Spanner, doc string) string {
	d := spanners.NewDocument(doc)
	out := []map[string]spanners.Span{}
	for _, m := range sp.ExtractAll(d) {
		enc := map[string]spanners.Span{}
		for v, s := range m {
			enc[string(v)] = s
		}
		out = append(out, enc)
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// must returns an unwrapper for spanner-returning calls that fails
// the test on error: must(t)(spanners.Union(a, b)).
func must(t testing.TB) func(*spanners.Spanner, error) *spanners.Spanner {
	return func(sp *spanners.Spanner, err error) *spanners.Spanner {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
}

func TestBuildMatchesLocalComposition(t *testing.T) {
	leaves := mapResolver{
		"y3": spanners.MustCompile(".*y{...}.*"),
		"z3": spanners.MustCompile(".*z{...}.*"),
		"ab": spanners.MustCompile("x{ab}.*"),
		"de": spanners.MustCompile(".*w{de}"),
	}
	doc := "abcde"
	cases := []struct {
		expr  string
		local *spanners.Spanner
	}{
		{"union(ab, de)", must(t)(spanners.Union(leaves["ab"], leaves["de"]))},
		{"join(y3, z3)", must(t)(spanners.Join(leaves["y3"], leaves["z3"]))},
		{"project(join(y3, z3), y)", must(t)(spanners.Project(must(t)(spanners.Join(leaves["y3"], leaves["z3"])), "y"))},
		{
			"union(project(join(y3, z3), z), de)",
			must(t)(spanners.Union(must(t)(spanners.Project(must(t)(spanners.Join(leaves["y3"], leaves["z3"])), "z")), leaves["de"])),
		},
		// n-ary folds left.
		{"union(ab, de, y3)", must(t)(spanners.Union(must(t)(spanners.Union(leaves["ab"], leaves["de"])), leaves["y3"]))},
	}
	for _, c := range cases {
		e, err := Parse(c.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.expr, err)
		}
		plan, err := Build(e, leaves)
		if err != nil {
			t.Fatalf("Build(%q): %v", c.expr, err)
		}
		if got, want := mappings(plan.Spanner, doc), mappings(c.local, doc); got != want {
			t.Errorf("Build(%q) outputs %s, local composition %s", c.expr, got, want)
		}
	}
}

func TestBuildPinsEveryLeaf(t *testing.T) {
	leaves := mapResolver{"a": spanners.MustCompile("x{a}"), "b": spanners.MustCompile("y{b}")}
	e, _ := Parse("union(a, b@latest)")
	plan, err := Build(e, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if want := "union(a@vvvvvvvvvvvv,b@vvvvvvvvvvvv)"; plan.Pinned != want {
		t.Fatalf("Pinned = %q, want %q", plan.Pinned, want)
	}
	if plan.Leaves != 2 {
		t.Fatalf("Leaves = %d, want 2", plan.Leaves)
	}
}

func TestBuildErrors(t *testing.T) {
	leaves := mapResolver{"a": spanners.MustCompile("x{a}")}
	cases := []struct {
		expr string
		want error
	}{
		{"union(a, ghost)", registry.ErrNotFound},
		{"project(a, zz)", ErrUnbound},
		{"project(project(a, x), y)", ErrUnbound}, // y projected away upstream… never bound at all
	}
	for _, c := range cases {
		e, err := Parse(c.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.expr, err)
		}
		if _, err := Build(e, leaves); !errors.Is(err, c.want) {
			t.Errorf("Build(%q) error = %v, want %v", c.expr, err, c.want)
		}
	}
}

func TestRegistryResolverRecursesThroughAlgebraKind(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register("ab", "x{ab}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register("de", ".*w{de}"); err != nil {
		t.Fatal(err)
	}

	// Register the union as a first-class algebra artifact, then use
	// it as a leaf of a larger expression.
	e, _ := Parse("union(ab, de)")
	r := &RegistryResolver{Reg: reg}
	plan, err := Build(e, r)
	if err != nil {
		t.Fatal(err)
	}
	uman, _, err := reg.RegisterCompiled("both", plan.Spanner.WithAlgebraSource(plan.Pinned))
	if err != nil {
		t.Fatal(err)
	}
	if uman.Kind != registry.KindAlgebra || uman.Source != plan.Pinned {
		t.Fatalf("algebra manifest = %+v, want kind=algebra source=%q", uman, plan.Pinned)
	}

	outer, _ := Parse("project(both, x)")
	builds := 0
	r2 := &RegistryResolver{Reg: reg, OnBuild: func(registry.Manifest) { builds++ }}
	oplan, err := Build(outer, r2)
	if err != nil {
		t.Fatal(err)
	}
	doc := "abde"
	want := mappings(must(t)(spanners.Project(plan.Spanner, "x")), doc)
	if got := mappings(oplan.Spanner, doc); got != want {
		t.Fatalf("nested algebra outputs %s, want %s", got, want)
	}
	// both + its two leaves were each built from source exactly once.
	if builds != 3 {
		t.Fatalf("OnBuild fired %d times, want 3", builds)
	}
}

func TestRegistryResolverCycle(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft a manifest whose algebra source references itself —
	// impossible through the API (content addressing orders versions),
	// but storage is just files and the resolver must not loop.
	version := "aaaaaaaaaaaa"
	man := registry.Manifest{
		Name: "cyc", Version: version, Kind: registry.KindAlgebra,
		Source: fmt.Sprintf("union(cyc@%s,cyc@%s)", version, version),
	}
	b, _ := json.Marshal(man)
	if err := os.MkdirAll(filepath.Join(dir, "cyc"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cyc", version+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	e, _ := Parse("cyc@" + version)
	if _, err := Build(e, &RegistryResolver{Reg: reg}); !errors.Is(err, ErrCycle) {
		t.Fatalf("cyclic resolution error = %v, want ErrCycle", err)
	}
}

func TestRegistryResolverUnknownLeaf(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := Parse("union(ghost, ghost)")
	if _, err := Build(e, &RegistryResolver{Reg: reg}); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("unknown leaf error = %v, want registry.ErrNotFound", err)
	}
}

func TestRegistryResolverHooks(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register("a", "x{a}"); err != nil {
		t.Fatal(err)
	}
	cache := map[string]*spanners.Spanner{}
	r := &RegistryResolver{
		Reg:    reg,
		Lookup: func(ref string) *spanners.Spanner { return cache[ref] },
		Store:  func(ref string, sp *spanners.Spanner) { cache[ref] = sp },
	}
	e, _ := Parse("union(a, a)") // the second leaf must hit the Store'd first
	builds := 0
	r.OnBuild = func(registry.Manifest) { builds++ }
	if _, err := Build(e, r); err != nil {
		t.Fatal(err)
	}
	if builds != 1 || len(cache) != 1 {
		t.Fatalf("builds=%d cache=%d, want 1 build reused via the hook cache", builds, len(cache))
	}
}

// TestAlgebraKindSurvivesRawImport is the regression test for the
// RGX/algebra ambiguity: a canonical algebra expression is also a
// valid RGX, so the kind must travel inside the artifact — an
// exported composition imported by raw bytes must rebuild as the
// composition, never as a literal matcher.
func TestAlgebraKindSurvivesRawImport(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register("y3", ".*y{...}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register("z3", ".*z{...}.*"); err != nil {
		t.Fatal(err)
	}
	e, _ := Parse("join(y3, z3)")
	plan, err := Build(e, &RegistryResolver{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.RegisterCompiled("pair", plan.Spanner.WithAlgebraSource(plan.Pinned)); err != nil {
		t.Fatal(err)
	}

	// Export raw bytes, import into a fresh registry (with the leaves
	// it needs), and rebuild the imported entry from source.
	artifact, _, err := reg.Artifact("pair", "")
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	reg2, err := registry.Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg2.Register("y3", ".*y{...}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg2.Register("z3", ".*z{...}.*"); err != nil {
		t.Fatal(err)
	}
	iman, _, err := reg2.Put("copied", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if iman.Kind != registry.KindAlgebra {
		t.Fatalf("imported manifest kind = %q, want %q", iman.Kind, registry.KindAlgebra)
	}

	outer, _ := Parse("copied") // forces a rebuild from source (no automaton in the artifact)
	oplan, err := Build(outer, &RegistryResolver{Reg: reg2})
	if err != nil {
		t.Fatal(err)
	}
	doc := "abcde"
	if got, want := mappings(oplan.Spanner, doc), mappings(plan.Spanner, doc); got != want {
		t.Fatalf("imported algebra rebuilt as %s, want the composition %s", got, want)
	}
	if len(oplan.Spanner.Vars()) != 2 {
		t.Fatalf("rebuilt spanner binds %v — the source was misread as a literal RGX", oplan.Spanner.Vars())
	}
}
