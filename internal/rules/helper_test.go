package rules

import (
	"testing"

	"spanners/internal/eval"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// rgxEval evaluates an RGX over a document text via the eval engine.
func rgxEval(t testing.TB, n rgx.Node, text string) *span.Set {
	t.Helper()
	e, err := eval.CompileRGX(n)
	if err != nil {
		t.Fatalf("CompileRGX(%v): %v", n, err)
	}
	return e.All(span.NewDocument(text))
}

// mustEval is Eval failing the test on error.
func mustEval(t testing.TB, r *Rule, d *span.Document) *span.Set {
	t.Helper()
	s, err := Eval(r, d)
	if err != nil {
		t.Fatalf("Eval(%v): %v", r, err)
	}
	return s
}

// mustEvalUnion is EvalUnion failing the test on error.
func mustEvalUnion(t testing.TB, u Union, d *span.Document) *span.Set {
	t.Helper()
	s, err := EvalUnion(u, d)
	if err != nil {
		t.Fatalf("EvalUnion: %v", err)
	}
	return s
}
