package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSmoke runs every workload in quick mode, untraced and traced,
// and checks the result line: a correct run printing exactly the
// metrics BENCHMARK.json declares for that mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster per workload")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range []string{"bulk", "explore", "live"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--quick", "--out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v; record %s", res, lines[0])
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics %v\nwant %v", got, want)
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "bulk", "--trace", "2"},
		{"--workload", "bulk", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "--out", t.TempDir()), &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, stdout.String())
		}
	}
}
