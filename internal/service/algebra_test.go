package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spanners"
	"spanners/internal/algebra"
	"spanners/internal/registry"
)

// must returns an unwrapper for spanner-returning calls that fails
// the test on error: must(t)(spanners.Join(a, b)).
func must(t testing.TB) func(*spanners.Spanner, error) *spanners.Spanner {
	return func(sp *spanners.Spanner, err error) *spanners.Spanner {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
}

// encodeAll renders every mapping of sp on doc through the service
// wire encoding, so tests compare byte-identical results.
func encodeAll(sp *spanners.Spanner, doc string) string {
	d := spanners.NewDocument(doc)
	out := []Result{}
	for _, m := range sp.ExtractAll(d) {
		out = append(out, EncodeMapping(d, m))
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func encodeResults(res []Result) string {
	if res == nil {
		res = []Result{}
	}
	b, _ := json.Marshal(res)
	return string(b)
}

func TestAlgebraQueryMatchesLocalComposition(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	if _, _, err := svc.RegisterSpanner("y3", ".*y{...}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("z3", ".*z{...}.*"); err != nil {
		t.Fatal(err)
	}

	doc := "abcde"
	local := must(t)(spanners.Join(spanners.MustCompile(".*y{...}.*"), spanners.MustCompile(".*z{...}.*")))
	want := encodeAll(local, doc)

	ctx := context.Background()
	res, err := svc.Extract(ctx, Query{Algebra: "join(y3, z3)"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(res); got != want {
		t.Fatalf("algebra join = %s\nlocal composition = %s", got, want)
	}

	sp, err := svc.AlgebraSpanner("join(y3, z3)")
	if err != nil {
		t.Fatal(err)
	}
	if sp.ProgramFingerprint() == 0 {
		t.Fatal("composed algebra spanner has no compiled program")
	}

	st := svc.Stats()
	if st.Algebra.Queries != 2 || st.Algebra.Compositions != 1 || st.Algebra.CacheHits != 1 {
		t.Fatalf("algebra stats = %+v, want 2 queries = 1 composition + 1 cache hit", st.Algebra)
	}
	if st.Algebra.LeafBuilds != 2 {
		t.Fatalf("leaf builds = %d, want 2 (one per leaf, then resident)", st.Algebra.LeafBuilds)
	}

	// A third evaluation is a pure cache hit: no new composition, no
	// new leaf work.
	if _, err := svc.Extract(ctx, Query{Algebra: "join(y3,z3)"}, doc); err != nil {
		t.Fatal(err)
	}
	st2 := svc.Stats()
	if st2.Algebra.Compositions != 1 || st2.Algebra.LeafBuilds != 2 || st2.Algebra.CacheHits != 2 {
		t.Fatalf("repeat algebra stats = %+v, want composition/leaves unchanged", st2.Algebra)
	}
}

func TestAlgebraProjectAndUnionThroughService(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	if _, _, err := svc.RegisterSpanner("ab", "x{ab}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("de", ".*w{de}"); err != nil {
		t.Fatal(err)
	}
	doc := "abcde"
	local := must(t)(spanners.Project(
		must(t)(spanners.Union(spanners.MustCompile("x{ab}.*"), spanners.MustCompile(".*w{de}"))), "x"))
	res, err := svc.Extract(context.Background(), Query{Algebra: "project(union(ab, de), x)"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeResults(res), encodeAll(local, doc); got != want {
		t.Fatalf("project(union) = %s, want %s", got, want)
	}
}

// TestAlgebraCacheKeyHygiene is the regression test for the key-space
// fix: a canonical algebra expression is also a syntactically valid
// RGX, and the two must never collide in the shared LRU.
func TestAlgebraCacheKeyHygiene(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	amen, _, err := svc.RegisterSpanner("aa", "y{a}")
	if err != nil {
		t.Fatal(err)
	}
	bman, _, err := svc.RegisterSpanner("bb", "z{b}")
	if err != nil {
		t.Fatal(err)
	}

	composed, err := svc.AlgebraSpanner("union(aa, bb)")
	if err != nil {
		t.Fatal(err)
	}
	key := "union(" + amen.Ref() + "," + bman.Ref() + ")"
	if composed.String() != key {
		t.Fatalf("composed spanner reports source %q, want pinned canonical %q", composed, key)
	}

	// The same text as an inline RGX: letters, parens, '@' and ','
	// are all literals, so it compiles — to a literal matcher, not
	// the composition.
	inline, err := svc.Spanner(key)
	if err != nil {
		t.Fatalf("inline compile of %q: %v", key, err)
	}
	if inline == composed {
		t.Fatal("inline expression was served the composed algebra spanner: cache keys collide")
	}
	if len(inline.Vars()) != 0 {
		t.Fatalf("inline literal spanner binds %v, want no variables", inline.Vars())
	}
	if got := composed.Vars(); len(got) != 2 {
		t.Fatalf("composed spanner binds %v, want [y z]", got)
	}

	// And the reverse order: ask inline first, algebra second.
	svc2 := newRegistryService(t, svc.Registry().Dir())
	if _, err := svc2.Spanner(key); err != nil {
		t.Fatal(err)
	}
	composed2, err := svc2.AlgebraSpanner(key) // parses: union over two pinned leaves
	if err != nil {
		t.Fatal(err)
	}
	if len(composed2.Vars()) != 2 {
		t.Fatalf("algebra after inline binds %v: inline entry shadowed the composition", composed2.Vars())
	}
}

func TestAlgebraQueryErrors(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	if _, _, err := svc.RegisterSpanner("aa", "y{a}"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		q    Query
		want error
	}{
		{"syntax", Query{Algebra: "union(aa"}, algebra.ErrSyntax},
		{"arity", Query{Algebra: "union(aa)"}, algebra.ErrSyntax},
		{"unknown name", Query{Algebra: "union(aa, ghost)"}, registry.ErrNotFound},
		{"unknown pinned version", Query{Algebra: "aa@ffffffffffff"}, registry.ErrNotFound},
		{"unbound var", Query{Algebra: "project(aa, zz)"}, algebra.ErrUnbound},
		{"difference schema mismatch", Query{Algebra: "difference(aa, project(aa))"}, algebra.ErrUnbound},
		{"difference arity", Query{Algebra: "difference(aa)"}, algebra.ErrSyntax},
		{"two query fields", Query{Algebra: "aa", Expr: "x{a}"}, ErrBadQuery},
	}
	for _, c := range cases {
		_, err := svc.Extract(ctx, c.q, "a")
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error = %v, want %v", c.name, err, c.want)
		}
	}

	// Without a registry the algebra has nothing to compose over.
	if _, err := New(Config{}).Extract(ctx, Query{Algebra: "union(aa, aa)"}, "a"); !errors.Is(err, ErrNoRegistry) {
		t.Errorf("no registry: error = %v, want ErrNoRegistry", err)
	}
}

func TestRegisterAlgebraPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	if _, _, err := svc.RegisterSpanner("y3", ".*y{...}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("z3", ".*z{...}.*"); err != nil {
		t.Fatal(err)
	}
	man, created, err := svc.RegisterAlgebra("pair", "join(y3, z3)")
	if err != nil || !created {
		t.Fatalf("RegisterAlgebra: created=%v err=%v", created, err)
	}
	if man.Kind != registry.KindAlgebra {
		t.Fatalf("manifest kind = %q, want %q", man.Kind, registry.KindAlgebra)
	}

	doc := "abcde"
	local := must(t)(spanners.Join(spanners.MustCompile(".*y{...}.*"), spanners.MustCompile(".*z{...}.*")))
	want := encodeAll(local, doc)

	// Same process: the name serves immediately.
	ctx := context.Background()
	res, err := svc.Extract(ctx, Query{Spanner: "pair"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(res); got != want {
		t.Fatalf("pair = %s, want %s", got, want)
	}

	// Restart: the composed program is decoded from its artifact, no
	// compilation and no replanning.
	svc2 := newRegistryService(t, dir)
	if n, err := svc2.Prewarm(); err != nil || n != 3 {
		t.Fatalf("Prewarm = %d, %v", n, err)
	}
	res, err = svc2.Extract(ctx, Query{Spanner: man.Ref()}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(res); got != want {
		t.Fatalf("pair after restart = %s, want %s", got, want)
	}
	st := svc2.Stats()
	if st.Spanners.Misses != 0 || st.Algebra.Compositions != 0 {
		t.Fatalf("restart stats: %d compile misses, %d compositions; want 0, 0", st.Spanners.Misses, st.Algebra.Compositions)
	}

	// The registered algebra name composes as a leaf of a larger
	// expression — replanned from its pinned stored source.
	res, err = svc2.Extract(ctx, Query{Algebra: "project(pair, y)"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeResults(res), encodeAll(must(t)(spanners.Project(local, "y")), doc); got != want {
		t.Fatalf("project(pair, y) = %s, want %s", got, want)
	}
}

func TestAlgebraArtifactCorruptionFallsBackToReplan(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	if _, _, err := svc.RegisterSpanner("y3", ".*y{...}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("z3", ".*z{...}.*"); err != nil {
		t.Fatal(err)
	}
	man, _, err := svc.RegisterAlgebra("pair", "join(y3, z3)")
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the stored composed artifact.
	binPath := filepath.Join(dir, "pair", man.Version+".bin")
	b, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(binPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newRegistryService(t, dir)
	doc := "abcde"
	local := must(t)(spanners.Join(spanners.MustCompile(".*y{...}.*"), spanners.MustCompile(".*z{...}.*")))
	res, err := svc2.Extract(context.Background(), Query{Spanner: "pair"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeResults(res), encodeAll(local, doc); got != want {
		t.Fatalf("replanned pair = %s, want %s", got, want)
	}
	st := svc2.Stats()
	if st.Registry.SourceFallbacks != 1 {
		t.Fatalf("source fallbacks = %d, want 1 (corrupt algebra artifact replanned)", st.Registry.SourceFallbacks)
	}
	if st.Algebra.Compositions != 1 {
		t.Fatalf("compositions = %d, want 1 (fallback replans the stored expression)", st.Algebra.Compositions)
	}
}

func TestAlgebraDifferenceThroughService(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	if _, _, err := svc.RegisterSpanner("runs", "x{a+}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("pairs", "x{aa}.*"); err != nil {
		t.Fatal(err)
	}

	doc := "aaab"
	local, err := spanners.Difference(
		spanners.MustCompile("x{a+}.*"), spanners.MustCompile("x{aa}.*"),
		spanners.DefaultDifferenceBudget)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Extract(context.Background(), Query{Algebra: "difference(runs, pairs)"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeResults(res), encodeAll(local, doc); got != want {
		t.Fatalf("difference(runs, pairs) = %s, want %s", got, want)
	}
	if len(res) == 0 {
		t.Fatal("difference produced nothing — the test lost its subject")
	}
}

func TestAlgebraDifferenceBudgetTypedError(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A budget of 2 states cannot hold any real determinization.
	svc := New(Config{Registry: reg, DifferenceBudget: 2})
	if _, _, err := svc.RegisterSpanner("aa", ".*y{a+}.*"); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Extract(context.Background(), Query{Algebra: "difference(aa, aa)"}, "aaa")
	if !errors.Is(err, algebra.ErrBudget) {
		t.Fatalf("tiny-budget difference error = %v, want algebra.ErrBudget", err)
	}

	// The same expression under the default budget composes fine: the
	// failure above was the budget, not the query.
	svc2 := newRegistryService(t, dir)
	if _, err := svc2.Extract(context.Background(), Query{Algebra: "difference(aa, aa)"}, "aaa"); err != nil {
		t.Fatalf("default-budget difference: %v", err)
	}
}

func TestPrecomposeWarmsRegisteredAlgebra(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	if _, _, err := svc.RegisterSpanner("runs", "x{a+}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("pairs", "x{aa}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterAlgebra("rest", "difference(runs, pairs)"); err != nil {
		t.Fatal(err)
	}

	// Restart, pre-warm, pre-compose: the difference artifact survives
	// and its composition is rebuilt before any query arrives.
	svc2 := newRegistryService(t, dir)
	if _, err := svc2.Prewarm(); err != nil {
		t.Fatal(err)
	}
	n, err := svc2.Precompose()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Precompose = %d artifacts, want 1 (only the algebra entry)", n)
	}
	st := svc2.Stats()
	if st.Algebra.Precomposed != 1 || st.Algebra.Compositions != 1 {
		t.Fatalf("post-precompose stats = %+v, want 1 precomposed = 1 composition", st.Algebra)
	}

	// The equivalent query is now a pure cache hit — zero compile
	// misses, zero new compositions.
	doc := "aaab"
	local, err := spanners.Difference(
		spanners.MustCompile("x{a+}.*"), spanners.MustCompile("x{aa}.*"),
		spanners.DefaultDifferenceBudget)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc2.Extract(context.Background(), Query{Algebra: "difference(runs, pairs)"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeResults(res), encodeAll(local, doc); got != want {
		t.Fatalf("precomposed difference = %s, want %s", got, want)
	}
	st = svc2.Stats()
	if st.Algebra.Compositions != 1 || st.Algebra.CacheHits != 1 {
		t.Fatalf("post-query stats = %+v, want the query served from the precomposed entry", st.Algebra)
	}

	// A registry without algebra artifacts precomposes nothing.
	svc3 := newRegistryService(t, t.TempDir())
	if n, err := svc3.Precompose(); err != nil || n != 0 {
		t.Fatalf("empty Precompose = %d, %v; want 0, nil", n, err)
	}
	if _, err := New(Config{}).Precompose(); !errors.Is(err, ErrNoRegistry) {
		t.Fatalf("no-registry Precompose error = %v, want ErrNoRegistry", err)
	}
}

func TestAlgebraPlannerStatsCountRewrites(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	if _, _, err := svc.RegisterSpanner("xy", ".*x{a}y{b?}.*"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("yz", ".*y{.}z{.?}.*"); err != nil {
		t.Fatal(err)
	}
	// project-past-join must fire on the first query. The second joins
	// two identical subtrees: join dedup would be unsound, so both
	// operands survive to composition — where CSE composes them once.
	if _, err := svc.AlgebraSpanner("project(join(xy, yz), x)"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AlgebraSpanner("join(union(xy, yz), union(xy, yz))"); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Algebra.Rewrites == 0 {
		t.Fatalf("planner stats = %+v, want rewrites > 0", st.Algebra)
	}
	if st.Algebra.CSEHits == 0 {
		t.Fatalf("planner stats = %+v, want CSE hits > 0", st.Algebra)
	}
	fired := false
	for _, c := range svc.algebraRuleFires {
		if c.Load() > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("no per-rule counter ticked despite recorded rewrites")
	}
}

func TestAlgebraLatestMovesWithReRegistration(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	if _, _, err := svc.RegisterSpanner("aa", "y{a}"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("bb", "z{b}"); err != nil {
		t.Fatal(err)
	}
	sp1, err := svc.AlgebraSpanner("union(aa, bb)")
	if err != nil {
		t.Fatal(err)
	}
	// Re-register aa with a different source: latest moves, so the
	// same unpinned expression now pins differently and recomposes.
	if _, _, err := svc.RegisterSpanner("aa", "y{aa}"); err != nil {
		t.Fatal(err)
	}
	sp2, err := svc.AlgebraSpanner("union(aa, bb)")
	if err != nil {
		t.Fatal(err)
	}
	if sp1.String() == sp2.String() {
		t.Fatalf("pinned key %q did not move with the latest pointer", sp1)
	}
	d := spanners.NewDocument("aa")
	if len(sp2.ExtractAll(d)) == 0 {
		t.Fatal("recomposed spanner does not reflect the new leaf source")
	}
}
