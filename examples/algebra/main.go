// The spanner algebra (Theorem 4.5): union, projection and join over
// compiled spanners, including the join's signature ability to
// produce properly overlapping spans, plus determinization and the
// PTIME containment fragment — first through the library, then
// served: the same composition evaluated over a persistent registry
// through the /v1 HTTP API with the spanners/client package, exactly
// what spand exposes on POST /v1/extract.
//
//	go run ./examples/algebra
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"spanners"
	"spanners/client"
	"spanners/internal/httpapi"
	"spanners/internal/registry"
	"spanners/internal/service"
)

func main() {
	doc := spanners.NewDocument("abcde")

	// Two unary spanners: any 3-span for y, any 3-span for z.
	y3 := spanners.MustCompile(".*y{...}.*")
	z3 := spanners.MustCompile(".*z{...}.*")

	// Join: compatible outputs merge. y and z may properly overlap —
	// something no single RGX can produce (its outputs are always
	// hierarchical).
	j := must(spanners.Join(y3, z3))
	overlapping := 0
	for _, m := range j.ExtractAll(doc) {
		if !m.Hierarchical() {
			overlapping++
		}
	}
	fmt.Printf("join outputs on %q: %d total, %d properly overlapping\n",
		doc.Text(), len(j.ExtractAll(doc)), overlapping)

	// Union combines alternatives with different domains.
	u := must(spanners.Union(
		spanners.MustCompile("x{ab}.*"),
		spanners.MustCompile(".*w{de}"),
	))
	fmt.Println("union outputs:", u.ExtractAll(doc))

	// Projection drops variables.
	p := must(spanners.Project(j, "y"))
	fmt.Println("projection to y has", len(p.ExtractAll(doc)), "outputs")
	fmt.Println()

	// Determinization (Proposition 6.5): same outputs, deterministic
	// transitions — the automaton may grow.
	nd := spanners.MustCompile("x{a}|y{a}")
	det := must(spanners.Determinize(nd))
	fmt.Printf("determinize: %d -> %d states, deterministic=%v\n",
		nd.Automaton().NumStates, det.Automaton().NumStates,
		det.Automaton().IsDeterministic())
	d2 := spanners.NewDocument("a")
	fmt.Println("  nondet outputs:", nd.ExtractAll(d2))
	fmt.Println("  det outputs:   ", det.ExtractAll(d2))
	fmt.Println()

	// Containment: the general check is expensive (PSPACE-complete,
	// Theorem 6.4); for deterministic sequential point-disjoint
	// spanners the product check of Theorem 6.7 runs in PTIME.
	small := must(spanners.Determinize(spanners.MustCompile("x{ab}c(y{d})")))
	big := must(spanners.Determinize(spanners.MustCompile("x{ab}.(y{d})")))
	ok, err := spanners.ContainedDetSeq(small, big)
	fmt.Printf("PTIME containment x{ab}c(y{d}) ⊆ x{ab}.(y{d}): %v (err=%v)\n", ok, err)
	ok, err = spanners.ContainedDetSeq(big, small)
	fmt.Printf("PTIME containment x{ab}.(y{d}) ⊆ x{ab}c(y{d}): %v (err=%v)\n", ok, err)

	// Equivalence through the general algorithm.
	fmt.Println("x{a|b} ≡ x{b|a}:",
		spanners.Equivalent(spanners.MustCompile("x{a|b}"), spanners.MustCompile("x{b|a}")))
	fmt.Println()

	served(doc)
}

// must unwraps an algebra result; the example's compositions are far
// inside the compiled-program budgets.
func must(sp *spanners.Spanner, err error) *spanners.Spanner {
	if err != nil {
		log.Fatal(err)
	}
	return sp
}

// served replays the same algebra through the full serving stack: an
// in-process spand over HTTP, driven by the spanners/client package —
// the typed equivalent of
//
//	curl localhost:8080/v1/extract -d '{"algebra": "project(join(y3, z3), y)", "docs": ["abcde"]}'
//
// on a spand started with -registry. The same code works unchanged
// against a spangate cluster base URL.
func served(doc *spanners.Document) {
	dir, err := os.MkdirTemp("", "algebra-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	reg, err := registry.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(service.Config{Registry: reg})
	ts := httptest.NewServer(httpapi.New(svc, httpapi.Options{}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	for name, expr := range map[string]string{"y3": ".*y{...}.*", "z3": ".*z{...}.*"} {
		man, _, err := c.RegisterSpanner(ctx, name, expr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %s  ←  %s\n", man.Ref(), expr)
	}

	// The served composition returns the exact mappings the local
	// Join/Project composition produced above, runs on the compiled
	// execution core, and is cached under the pinned expression.
	resp, err := c.Extract(ctx, client.ExtractRequest{
		Query: client.Query{Algebra: "project(join(y3, z3), y)"},
		Docs:  []string{doc.Text()},
	})
	if err != nil {
		log.Fatal(err)
	}
	results := resp.Results[0]
	fmt.Printf("served project(join(y3, z3), y) on %q: %d mappings, e.g. %v\n",
		doc.Text(), len(results), results[0])

	// Compositions are first-class registry artifacts: the stored
	// source is the expression with its leaves pinned, so the name
	// keeps meaning the same bytes even as y3/z3 move on.
	man, _, err := c.RegisterAlgebra(ctx, "pair", "join(y3, z3)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %s  ←  %s\n", man.Ref(), man.Source)

	st := svc.Stats()
	fmt.Printf("algebra counters: %d queries, %d compositions over %d leaf builds\n",
		st.Algebra.Queries, st.Algebra.Compositions, st.Algebra.LeafBuilds)
}
