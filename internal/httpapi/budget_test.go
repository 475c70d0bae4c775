package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"spanners"
	"spanners/client"
	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/service"
	"spanners/internal/va"
)

// resultKeys renders results as sorted JSON strings, so result sets
// compare without regard to order.
func resultKeys(t *testing.T, results []service.Result) []string {
	t.Helper()
	keys := make([]string, len(results))
	for i, r := range results {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = string(buf)
	}
	sort.Strings(keys)
	return keys
}

// referenceResults is the va.Mappings reference of expr on text in
// the wire encoding.
func referenceResults(t *testing.T, expr, text string) []string {
	t.Helper()
	d := spanners.NewDocument(text)
	var out []service.Result
	for _, m := range va.FromRGX(rgx.MustParse(expr)).Mappings(d).Mappings() {
		out = append(out, service.EncodeMapping(d, m))
	}
	return resultKeys(t, out)
}

// wideChain is a sequential k-variable chain of one-letter captures
// over "abab…", every eighth one optional.
func wideChain(k int) string {
	var sb strings.Builder
	for i := 0; i < k; i++ {
		letter := "ab"[i%2 : i%2+1]
		if i%8 == 1 {
			fmt.Fprintf(&sb, "(x%02d{%s}|%s)", i, letter, letter)
		} else {
			fmt.Fprintf(&sb, "x%02d{%s}", i, letter)
		}
	}
	return sb.String()
}

// TestWideUnionOverHTTP: all 40 mappings of a 40-alternative union on
// "a" reach the client — none is dropped at the busy boundary.
func TestWideUnionOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	alts := make([]string, 40)
	for i := range alts {
		alts[i] = fmt.Sprintf("v%02d{a}", i)
	}
	expr := "(" + strings.Join(alts, "|") + ")"
	var out extractResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/extract",
		map[string]any{"expr": expr, "docs": []string{"a"}}, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("extract: status %d, %d result arrays", resp.StatusCode, len(out.Results))
	}
	got := resultKeys(t, out.Results[0])
	if len(got) != 40 || strings.Join(got, "\n") != strings.Join(referenceResults(t, expr, "a"), "\n") {
		t.Fatalf("extract returned %d mappings, want the 40 of the reference", len(got))
	}
}

// TestVariableBudgetOverHTTP registers spanners at 33 and 64 variables
// and extracts through their pinned versions, and refuses 65 with a
// typed 422 compile_budget on both extraction and registration.
func TestVariableBudgetOverHTTP(t *testing.T) {
	ts, _ := newRegistryTestServer(t, t.TempDir(), 0)
	for _, k := range []int{33, program.MaxVars} {
		expr := wideChain(k)
		text := strings.Repeat("ab", (k+1)/2)[:k]
		var reg registerResponse
		resp := doJSON(t, http.MethodPut, fmt.Sprintf("%s/v1/registry/wide%d", ts.URL, k),
			map[string]string{"expr": expr}, &reg)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("k=%d: register status %d", k, resp.StatusCode)
		}
		var out extractResponse
		resp = doJSON(t, http.MethodPost, ts.URL+"/v1/extract", map[string]any{
			"spanner": fmt.Sprintf("wide%d@%s", k, reg.Version),
			"docs":    []string{text},
		}, &out)
		if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
			t.Fatalf("k=%d: pinned extract status %d", k, resp.StatusCode)
		}
		want := referenceResults(t, expr, text)
		if got := resultKeys(t, out.Results[0]); len(want) < 2 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("k=%d: pinned extract returned %d mappings, reference %d", k, len(got), len(want))
		}
	}

	over := wideChain(program.MaxVars + 1)
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/extract",
		map[string]any{"expr": over, "docs": []string{"ab"}}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("65-variable extract: status %d, want 422", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != client.CodeCompileBudget {
		t.Fatalf("65-variable extract: code %q, want %q", e.Code, client.CodeCompileBudget)
	}
	resp = doJSON(t, http.MethodPut, ts.URL+"/v1/registry/wide65", map[string]string{"expr": over}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("65-variable register: status %d, want 422", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != client.CodeCompileBudget {
		t.Fatalf("65-variable register: code %q, want %q", e.Code, client.CodeCompileBudget)
	}
}
