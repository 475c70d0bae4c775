package spanners

import (
	"strings"
	"testing"
)

// TestIncrementalSession exercises the public incremental API
// end-to-end: open a session, append and edit, and check the
// maintained results against from-scratch extraction after each step.
func TestIncrementalSession(t *testing.T) {
	s := MustCompile(sellerExpr)
	base := "Seller: John, ID75\nBuyer: Marcelo, ID832, P78\n"
	inc, ok := s.Incremental(base)
	if !ok {
		t.Fatal("compiled sequential spanner refused an incremental session")
	}
	check := func(ctx string) {
		t.Helper()
		want := s.ExtractAll(NewDocument(inc.Text()))
		got := inc.Mappings()
		if len(got) != len(want) {
			t.Fatalf("%s: %d mappings incrementally, %d from scratch", ctx, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: mapping %d differs: %v vs %v", ctx, i, got[i], want[i])
			}
		}
		if inc.MappingCount() != len(got) {
			t.Fatalf("%s: MappingCount()=%d, Mappings()=%d", ctx, inc.MappingCount(), len(got))
		}
	}
	check("initial")

	st, err := inc.Append("Seller: Mark, ID7, $35,000\n")
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	check("after append")
	if st.Recomputed == 0 {
		t.Fatalf("appending a matching line recomputed nothing: %+v", st)
	}
	// The recomputed block [ReusedLeft, ReusedLeft+Recomputed) is how
	// followers isolate new outputs; the new seller must be inside it.
	all := inc.Mappings()
	found := false
	for _, m := range all[st.ReusedLeft : st.ReusedLeft+st.Recomputed] {
		if sp, ok := m["x"]; ok && inc.Document().Content(sp) == "Mark" {
			found = true
		}
	}
	if !found {
		t.Fatalf("new seller not in the recomputed block %+v of %d mappings", st, len(all))
	}

	if _, err := inc.Splice(0, 0, "Seller: Ann, ID9\n"); err != nil {
		t.Fatalf("splice at 0: %v", err)
	}
	check("after prepend")

	if _, err := inc.Splice(1, 2, "x"); err != nil {
		t.Fatalf("mid edit: %v", err)
	}
	check("after mid edit")

	if _, err := inc.Splice(inc.Document().Len()+1, 0, "y"); err == nil {
		t.Fatal("out-of-range splice succeeded")
	}
	check("after rejected splice")

	if inc.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes() = %d", inc.MemoryBytes())
	}
	stats := inc.Stats()
	if stats.FullRuns != 1 || stats.Splices != 3 {
		t.Fatalf("session stats: %+v", stats)
	}
	if stats.Recomputed == 0 {
		t.Fatalf("splices recomputed nothing: %+v", stats)
	}

	// Each yields in order and stops early.
	seen := 0
	inc.Each(func(m Mapping) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Fatalf("Each visited %d mappings after an early stop", seen)
	}
}

// TestIncrementalRefusal pins the capability gate on the public
// surface: a non-sequential spanner refuses a session, yet still has
// a program and so a nonzero fingerprint.
func TestIncrementalRefusal(t *testing.T) {
	s := MustCompile(`(x0{a}|x1{a}|b)*`)
	if s.Sequential() {
		t.Fatal("starred captures unexpectedly sequential")
	}
	if _, ok := s.Incremental("aaa"); ok {
		t.Fatal("non-sequential spanner accepted an incremental session")
	}
	if s.ProgramFingerprint() == 0 {
		t.Fatal("non-sequential spanner reported a zero fingerprint")
	}
}

// TestProgramFingerprintStable asserts the fingerprint is nonzero,
// equal across recompiles of the same source, and distinct across
// different programs.
func TestProgramFingerprintStable(t *testing.T) {
	a1 := MustCompile(sellerExpr).ProgramFingerprint()
	a2 := MustCompile(sellerExpr).ProgramFingerprint()
	b := MustCompile(`.*(x{ab*}c).*`).ProgramFingerprint()
	if a1 == 0 || b == 0 {
		t.Fatalf("zero fingerprint for a compiled spanner: %d %d", a1, b)
	}
	if a1 != a2 {
		t.Fatalf("fingerprint unstable across recompiles: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("distinct programs share fingerprint %d", a1)
	}
}

// TestIncrementalLongFollow simulates the follow-mode loop the weblog
// example runs: many small appends to a growing log, asserting the
// cumulative resweep cost stays far below re-extracting every time.
func TestIncrementalLongFollow(t *testing.T) {
	s := MustCompile(sellerExpr)
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString("Seller: S" + string(rune('a'+i%26)) + ", ID1\n")
	}
	inc, ok := s.Incremental(b.String())
	if !ok {
		t.Fatal("no session")
	}
	for i := 0; i < 25; i++ {
		if _, err := inc.Append("Seller: New, ID2, $5\n"); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	want := s.ExtractAll(NewDocument(inc.Text()))
	got := inc.Mappings()
	if len(got) != len(want) {
		t.Fatalf("after follow loop: %d vs %d mappings", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("mapping %d differs after follow loop", i)
		}
	}
	stats := inc.Stats()
	full := int64(inc.Document().Len()) * stats.Splices
	if cost := stats.FwdSteps + stats.BwdSteps; cost*4 > full {
		t.Fatalf("follow loop cost %d is not well below %d (full re-extraction positions)", cost, full)
	}
}
