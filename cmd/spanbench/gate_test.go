package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// report builds a minimal gateable report.
func report(quick bool, speedups map[string]float64, service map[string]int64) incReport {
	rep := incReport{Quick: quick}
	for name, s := range speedups {
		rep.HeadToHead = append(rep.HeadToHead, incScenario{Name: name, Speedup: s})
	}
	for name, ns := range service {
		rep.Service = append(rep.Service, serviceScenario{Name: name, NsOp: ns})
	}
	return rep
}

func writeBaseline(t *testing.T, section string, rep incReport) string {
	t.Helper()
	buf, err := json.Marshal(map[string]any{section: rep})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateAgainstBaseline(t *testing.T) {
	section := "spanbench_incremental"
	base := writeBaseline(t, section, report(false,
		map[string]float64{"weblog/tail-append lines=1024": 2000, "weblog/mid-edit lines=1024": 1000},
		map[string]int64{"service/doc_extract_cached": 400_000}))

	// A run at baseline speed passes.
	ok := report(false,
		map[string]float64{"weblog/tail-append lines=1024": 1900, "weblog/mid-edit lines=1024": 950},
		map[string]int64{"service/doc_extract_cached": 420_000})
	if err := gateAgainstBaseline(ok, base, section, 2); err != nil {
		t.Fatalf("healthy run failed the gate: %v", err)
	}

	// A head-to-head speedup below baseline/mult fails, keyed on the
	// stable prefix even when the size suffix changed.
	slow := report(false,
		map[string]float64{"weblog/tail-append lines=2048": 800, "weblog/mid-edit lines=1024": 950},
		map[string]int64{"service/doc_extract_cached": 420_000})
	err := gateAgainstBaseline(slow, base, section, 2)
	if err == nil || !strings.Contains(err.Error(), "weblog/tail-append") {
		t.Fatalf("regressed speedup passed the gate: %v", err)
	}

	// The absolute floor binds even when the baseline itself is low:
	// a 4x tail-append fails against a 6x baseline at mult 2 (4 > 6/2)
	// purely because of the 5x floor.
	lowBase := writeBaseline(t, section, report(false,
		map[string]float64{"weblog/tail-append lines=1024": 6}, nil))
	floored := report(false, map[string]float64{"weblog/tail-append lines=1024": 4}, nil)
	err = gateAgainstBaseline(floored, lowBase, section, 2)
	if err == nil || !strings.Contains(err.Error(), "absolute floor") {
		t.Fatalf("sub-floor speedup passed the gate: %v", err)
	}
	// The same floors do not apply outside their section.
	engBase := writeBaseline(t, "spanbench_engine", report(false,
		map[string]float64{"weblog/tail-append lines=1024": 6}, nil))
	if err := gateAgainstBaseline(floored, engBase, "spanbench_engine", 2); err != nil {
		t.Fatalf("engine section applied incremental floors: %v", err)
	}

	// A service-only section (the -engine report) gates on its
	// service rows alone.
	svcBase := writeBaseline(t, "spanbench_engine", report(false, nil,
		map[string]int64{"service/compile_cached": 40_000}))
	if err := gateAgainstBaseline(report(false, nil, map[string]int64{"service/compile_cached": 60_000}),
		svcBase, "spanbench_engine", 2); err != nil {
		t.Fatalf("healthy service-only run failed the gate: %v", err)
	}
	if err := gateAgainstBaseline(report(false, nil, map[string]int64{"service/compile_cached": 90_000}),
		svcBase, "spanbench_engine", 2); err == nil || !strings.Contains(err.Error(), "service") {
		t.Fatalf("regressed service-only run passed the gate: %v", err)
	}
	emptyBase := writeBaseline(t, "spanbench_engine", report(false, nil, nil))
	if err := gateAgainstBaseline(ok, emptyBase, "spanbench_engine", 2); err == nil {
		t.Fatal("baseline section without rows passed the gate")
	}

	// Service ns/op above baseline*mult fails.
	slowSvc := report(false,
		map[string]float64{"weblog/tail-append lines=1024": 1900, "weblog/mid-edit lines=1024": 950},
		map[string]int64{"service/doc_extract_cached": 900_000})
	err = gateAgainstBaseline(slowSvc, base, section, 2)
	if err == nil || !strings.Contains(err.Error(), "service") {
		t.Fatalf("regressed service path passed the gate: %v", err)
	}

	// Unknown sections and malformed inputs are errors, not passes.
	if err := gateAgainstBaseline(ok, base, "spanbench_dfa", 2); err == nil {
		t.Fatal("missing baseline section passed the gate")
	}
	if err := gateAgainstBaseline(ok, base, section, 0.5); err == nil {
		t.Fatal("sub-1 multiplier accepted")
	}
	if err := gateAgainstBaseline(ok, filepath.Join(t.TempDir(), "none.json"), section, 2); err == nil {
		t.Fatal("unreadable baseline passed the gate")
	}
}

// TestRunIncrementalBenchQuick smoke-runs the -incremental suite in
// quick mode and checks the report it gates CI with: every
// head-to-head scenario beat full re-extraction, and the committed
// absolute floor held.
func TestRunIncrementalBenchQuick(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "inc.json")
	rep := runIncrementalBench(true, jsonPath)

	if len(rep.HeadToHead) != 3 {
		t.Fatalf("head-to-head scenarios = %d, want 3", len(rep.HeadToHead))
	}
	for _, sc := range rep.HeadToHead {
		if sc.Speedup <= 1 {
			t.Errorf("%s: speedup %.2fx, want > 1x", sc.Name, sc.Speedup)
		}
		if sc.MappingsPerDoc <= 0 {
			t.Errorf("%s: no mappings extracted", sc.Name)
		}
	}
	for key, floor := range incSpeedupFloors {
		found := false
		for _, sc := range rep.HeadToHead {
			if scenarioKey(sc.Name) == key {
				found = true
				if sc.Speedup < floor {
					t.Errorf("%s: speedup %.2fx below the committed floor %.2fx", sc.Name, sc.Speedup, floor)
				}
			}
		}
		if !found {
			t.Errorf("floor scenario %q not in the report", key)
		}
	}
	if len(rep.Service) != 2 {
		t.Fatalf("service scenarios = %d, want 2", len(rep.Service))
	}

	// The JSON artifact round-trips through the gate's projection.
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var g gatedReport
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.HeadToHead) != 3 || g.HeadToHead[0].Speedup != rep.HeadToHead[0].Speedup {
		t.Fatalf("gated projection mismatch: %+v", g.HeadToHead)
	}
	if !g.Quick {
		t.Fatal("quick flag not recorded")
	}
}
