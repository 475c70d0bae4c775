// Web logs: extract method, path, status and the optional referer
// field from access-log lines, then slice the results with the
// spanner algebra (projection), follow a growing log with an
// incremental session (only the new lines' mappings are surfaced per
// append), and check a containment property of two extraction
// patterns.
//
//	go run ./examples/weblog
package main

import (
	"fmt"
	"log"

	"spanners"
	"spanners/internal/workload"
)

func main() {
	text := workload.WebLog(workload.WebLogOptions{Lines: 150, ReferProb: 0.35, Seed: 7})
	doc := spanners.NewDocument(text)

	// One line:  1.2.3.4 GET /path 200 1234 "agent" ref=/from
	line := spanners.MustCompile(
		`.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`)
	fmt.Println("sequential:", line.Sequential())

	status := map[string]int{}
	refs := map[string]int{}
	total, withRef := 0, 0
	line.Enumerate(doc, func(m spanners.Mapping) bool {
		total++
		status[doc.Content(m["st"])]++
		if r, ok := m["r"]; ok {
			withRef++
			refs[doc.Content(r)]++
		}
		return true
	})
	fmt.Printf("requests: %d, with referer: %d\n", total, withRef)
	fmt.Println("status counts:")
	for _, code := range []string{"200", "301", "404", "503"} {
		if status[code] > 0 {
			fmt.Printf("  %s: %d\n", code, status[code])
		}
	}

	// Projection: keep only the path variable for a URL histogram.
	paths, err := spanners.Project(line, "p")
	if err != nil {
		log.Fatal(err)
	}
	hist := map[string]int{}
	paths.Enumerate(doc, func(m spanners.Mapping) bool {
		hist[doc.Content(m["p"])]++
		return true
	})
	fmt.Println("top paths (projected spanner):")
	for p, c := range hist {
		if c >= total/10 {
			fmt.Printf("  %-16s %d\n", p, c)
		}
	}

	// Follow mode: an incremental session keeps the full result set
	// hot while the log grows. Each append resweeps only the suffix
	// until the frontiers re-converge, and the recomputed block
	// [ReusedLeft, ReusedLeft+Recomputed) of the post-edit order is
	// exactly the new lines' mappings — a tail -f that pays for the
	// tail, not the file.
	fmt.Println("\nfollow mode (incremental session):")
	inc, incOK := line.Incremental(text)
	if !incOK {
		panic("weblog: spanner refused an incremental session")
	}
	batches := [][]string{
		{`10.0.0.1 GET /api/items 200 734 "curl/8.0"`},
		{`10.0.0.2 POST /api/users 503 88 "Go-http-client/1.1"`,
			`10.0.0.2 POST /api/users 200 91 "Go-http-client/1.1" ref=/index.html`},
	}
	for _, batch := range batches {
		var chunk string
		for _, l := range batch {
			chunk += l + "\n"
		}
		st, err := inc.Append(chunk)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  appended %d line(s): reswept %d positions, %d mapping(s) new, %d reused\n",
			len(batch), st.FwdSteps+st.BwdSteps, st.Recomputed, st.ReusedLeft+st.ReusedRight)
		d := inc.Document()
		i := 0
		inc.Each(func(m spanners.Mapping) bool {
			if i >= st.ReusedLeft && i < st.ReusedLeft+st.Recomputed {
				fmt.Printf("    new: %s %s → %s\n",
					d.Content(m["m"]), d.Content(m["p"]), d.Content(m["st"]))
			}
			i++
			return i < st.ReusedLeft+st.Recomputed
		})
	}
	stats := inc.Stats()
	fmt.Printf("  session: %d full run(s), %d splice(s), %d mappings reused vs %d recomputed\n",
		stats.FullRuns, stats.Splices, stats.Reused, stats.Recomputed)

	// Static analysis: every error-line extraction is also a line
	// extraction, and containment proves it once and for all — no
	// test corpus needed (Theorem 6.4).
	errors := spanners.MustCompile(
		`.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{503}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`)
	ok, _ := spanners.Contained(errors, line)
	fmt.Println("\nerror-pattern ⊆ line-pattern:", ok)
	ok2, cex := spanners.Contained(line, errors)
	fmt.Println("line-pattern ⊆ error-pattern:", ok2)
	if cex != nil {
		fmt.Printf("  counterexample document: %q\n", cex.Doc.Text())
	}
}
