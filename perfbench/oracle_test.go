package main

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"spanners"
	"spanners/client"
	"spanners/internal/registry"
	"spanners/internal/service"
	"spanners/internal/workload"
)

func TestParseWebLogOptionalReferer(t *testing.T) {
	text := "10.0.0.1 GET /a 200 12 \"curl/8.0\"\n" +
		"10.0.0.2 POST /b 503 7 \"Go-http-client/1.1\" ref=/index.html\n"
	lines, err := parseWebLog(text)
	if err != nil {
		t.Fatal(err)
	}
	got := keySet(text, lineMappings(lines))
	want := []string{
		"m=10:13:GET;p=14:16:/a;st=17:20:200;",
		"m=44:48:POST;p=49:51:/b;r=83:94:/index.html;st=52:55:503;",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q\nwant %q", got, want)
	}
	if lines[0].hasRef || !lines[1].hasRef || lines[0].errorStatus || !lines[1].errorStatus {
		t.Fatalf("flags: %+v", lines)
	}
	for _, bad := range []string{"no newline", "1.2.3.4 GET / 200 1 agent\n", "1.2.3.4 GET / 200 1 \"a\" x\n"} {
		if _, err := parseWebLog(bad); err == nil {
			t.Errorf("parseWebLog(%q) accepted malformed input", bad)
		}
	}
}

func TestParseSellersOptionalTax(t *testing.T) {
	text := "Seller: John Silva, ID75\n" +
		"Buyer: Marcelo Rojas, ID832, P78\n" +
		"Seller: Mark Munoz, ID7, $35,000\n"
	ms, err := parseSellers(text)
	if err != nil {
		t.Fatal(err)
	}
	got := keySet(text, ms)
	want := []string{
		"id=23:25:75;name=9:19:John Silva;",
		"id=81:82:7;name=67:77:Mark Munoz;tax=85:91:35,000;",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q\nwant %q", got, want)
	}
	if _, err := parseSellers("Lessee: X, ID1\n"); err == nil {
		t.Error("parseSellers accepted an unknown row")
	}
}

// served runs sp over text in-process and reduces the output to client
// results, the shape the served path returns.
func served(sp *spanners.Spanner, text string) []client.Result {
	d := spanners.NewDocument(text)
	var out []client.Result
	sp.Enumerate(d, func(m spanners.Mapping) bool {
		r := client.Result{}
		for v, s := range m {
			r[string(v)] = client.Span{Start: s.Start, End: s.End, Content: d.Content(s)}
		}
		out = append(out, r)
		return true
	})
	return out
}

// The parsers must agree with the example spanners they stand in for,
// absent optional variables included.
func TestParsersMatchExampleSpanners(t *testing.T) {
	text := workload.WebLog(workload.WebLogOptions{Lines: 40, ReferProb: 0.35, Seed: 5})
	lines, err := parseWebLog(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResults(served(spanners.MustCompile(lineSpanner), text), keySet(text, lineMappings(lines))); err != nil {
		t.Errorf("line spanner: %v", err)
	}
	text = workload.LandRegistry(workload.LandRegistryOptions{Rows: 40, TaxProb: 0.4, Seed: 5})
	sellers, err := parseSellers(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResults(served(spanners.MustCompile(sellerSpanner), text), keySet(text, sellers)); err != nil {
		t.Errorf("seller spanner: %v", err)
	}
}

func TestLineQueriesMatchEngine(t *testing.T) {
	text := workload.WebLog(workload.WebLogOptions{Lines: 32, ReferProb: 0.35, Seed: 3})
	lines, err := parseWebLog(text)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 40; i++ {
		q := randomLineQuery(rng)
		sp, err := spanners.Compile(q.expr())
		if err != nil {
			t.Fatalf("%s: %v", q.expr(), err)
		}
		if err := checkResults(served(sp, text), keySet(text, q.reference(lines, text))); err != nil {
			t.Fatalf("%s: %v", q.expr(), err)
		}
	}
}

func TestAlgebraReferenceMatchesService(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Registry: reg})
	refs := make([]string, len(algebraLeaves))
	for i, l := range algebraLeaves {
		man, _, err := svc.RegisterSpanner(l.name, l.expr)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = l.name + "@" + man.Version
	}
	text := workload.WebLog(workload.WebLogOptions{Lines: 32, ReferProb: 0.35, Seed: 4})
	lines, err := parseWebLog(text)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 30; i++ {
		e := randomAlgExpr(rng, 2+rng.IntN(2))
		res, err := svc.Extract(context.Background(), service.Query{Algebra: e.render(refs)}, text)
		if err != nil {
			t.Fatalf("%s: %v", e.render(refs), err)
		}
		got := make([]client.Result, len(res))
		for k, r := range res {
			got[k] = client.Result{}
			for v, s := range r {
				got[k][v] = client.Span{Start: s.Start, End: s.End, Content: s.Content}
			}
		}
		if err := checkResults(got, keySet(text, e.eval(lines, text))); err != nil {
			t.Fatalf("%s: %v", e.render(refs), err)
		}
	}
}

func TestCheckResultsRejectsDuplicatesAndEmptySpans(t *testing.T) {
	want := []string{"m=1:4:GET;"}
	if err := checkResults([]client.Result{{"m": {Start: 1, End: 4, Content: "GET"}}, {"m": {Start: 1, End: 4, Content: "GET"}}}, want); err == nil {
		t.Error("a duplicated mapping passed")
	}
	// An absent optional variable must be absent, not an empty span.
	if err := checkResults([]client.Result{{"m": {Start: 1, End: 4, Content: "GET"}, "r": {Start: 4, End: 4, Content: ""}}}, want); err == nil {
		t.Error("an empty span passed for an absent variable")
	}
}
