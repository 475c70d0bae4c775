package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"spanners/internal/eval"
	"spanners/internal/service"
	"spanners/internal/va"
)

// The -engine mode records the service-path numbers that
// BENCH_engine.json tracks across PRs: the compiled engines behind
// the full cache and worker-pool stack. Results print as a table and,
// with -enginejson, are written as JSON so the before/after record
// stays machine-readable.

// serviceScenario is one service-path measurement (compiled engines,
// full cache/worker-pool stack — the numbers the service benchmarks
// in internal/service/bench_service_test.go track).
type serviceScenario struct {
	Name string `json:"name"`
	NsOp int64  `json:"ns_op"`
}

type engineReport struct {
	Generated string            `json:"generated"`
	Quick     bool              `json:"quick"`
	Service   []serviceScenario `json:"service_path"`
}

// measure runs f repeatedly after one warmup call until the time
// budget elapses and returns ns per call.
func measure(f func(), budget time.Duration) int64 {
	f()
	iters := 0
	start := time.Now()
	for time.Since(start) < budget {
		f()
		iters++
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}

// mustEngine compiles a into an engine; the benchmark automata are
// fixed and within the program budgets, so failure is a bug.
func mustEngine(a *va.VA) *eval.Engine {
	e, err := eval.NewEngine(a)
	if err != nil {
		panic(fmt.Sprintf("benchmark automaton: %v", err))
	}
	return e
}

func runEngineBench(quick bool, jsonPath string) engineReport {
	budget := 300 * time.Millisecond
	if quick {
		budget = 25 * time.Millisecond
	}
	rep := engineReport{Generated: time.Now().UTC().Format(time.RFC3339), Quick: quick}

	fmt.Println("== service path (compiled engines, full cache + worker pool)")
	svc := service.New(service.Config{Workers: 4})
	ctx := context.Background()
	nDocs := 64
	if quick {
		nDocs = 16
	}
	docs := make([]string, nDocs)
	for i := range docs {
		docs[i] = fmt.Sprintf("Seller: S%d, lot %d\nBuyer: B%d\nSeller: T%d, lot %d\n", i, i, i, i, i+1)
	}
	batchQ := service.Query{Expr: `.*(Seller: x{[^,\n]*},[^\n]*\n).*`}
	servicePath := func(name string, f func()) {
		ns := measure(f, budget)
		rep.Service = append(rep.Service, serviceScenario{Name: name, NsOp: ns})
		row(name, time.Duration(ns).String(), "")
	}
	servicePath("service/compile_cached", func() {
		if _, err := svc.Extract(ctx, batchQ, docs[0]); err != nil {
			panic(err)
		}
	})
	servicePath(fmt.Sprintf("service/batch docs=%d workers=4", nDocs), func() {
		if _, err := svc.ExtractBatch(ctx, batchQ, docs); err != nil {
			panic(err)
		}
	})
	streamQ := service.Query{Expr: `a*x{a*}a*`}
	streamText := strings.Repeat("a", 200)
	servicePath("service/stream_first_result", func() {
		if err := svc.ExtractStream(ctx, streamQ, streamText, func(service.Result) bool { return false }); err != nil {
			panic(err)
		}
	})

	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			panic(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "spanbench: write %s: %v\n", jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return rep
}

// boolToInt keeps benchmarked boolean results observable so the calls
// are not optimized away.
var benchSink int

func boolToInt(b bool) {
	if b {
		benchSink++
	}
}
