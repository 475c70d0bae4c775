package main

import (
	"fmt"
	"sort"
	"strings"

	"spanners/client"
)

// The oracle: plain line parsers over the generated text, independent
// of the engine under test. Every answer the served path returns is
// compared, as a set of canonical mapping keys, against what these
// parsers derive. internal/naive cannot play this role at the sizes
// the workloads use (it does not finish a 4-line web log with the
// 4-variable line spanner in minutes).

// field is a byte range [start, end) of the document. The generated
// documents are ASCII, so byte offsets and rune offsets agree.
type field struct{ start, end int }

// mapping is one reference output: variable → field. A variable the
// spanner leaves unassigned is absent, never an empty field.
type mapping map[string]field

// key renders m canonically (sorted variables, 1-based spans and
// content), the form served results are reduced to for comparison.
func (m mapping) key(text string) string {
	vars := make([]string, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		f := m[v]
		fmt.Fprintf(&b, "%s=%d:%d:%s;", v, f.start+1, f.end+1, text[f.start:f.end])
	}
	return b.String()
}

// resultKey renders a served result in the same canonical form.
func resultKey(r client.Result) string {
	vars := make([]string, 0, len(r))
	for v := range r {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		s := r[v]
		fmt.Fprintf(&b, "%s=%d:%d:%s;", v, s.Start, s.End, s.Content)
	}
	return b.String()
}

// keySet reduces reference mappings to a sorted, duplicate-free key
// list.
func keySet(text string, ms []mapping) []string {
	seen := make(map[string]bool, len(ms))
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		k := m.key(text)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// checkResults compares served results with the reference key set. A
// duplicate served mapping is a mismatch: spanner output is a set.
func checkResults(got []client.Result, want []string) error {
	keys := make([]string, len(got))
	for i, r := range got {
		keys[i] = resultKey(r)
	}
	sort.Strings(keys)
	if len(keys) != len(want) {
		return fmt.Errorf("got %d mappings, want %d", len(keys), len(want))
	}
	for i := range keys {
		if keys[i] != want[i] {
			return fmt.Errorf("mapping %d: got %q, want %q", i, keys[i], want[i])
		}
	}
	return nil
}

// logLine is one parsed web-log line,
//
//	IP METHOD PATH STATUS BYTES "AGENT"[ ref=REF]\n
//
// with the referer field optional (hasRef).
type logLine struct {
	ip, m, p, st, b, a, r field
	hasRef                bool
	errorStatus           bool // status 404 or 503
}

// parseWebLog splits a generated web log into lines and fields.
func parseWebLog(text string) ([]logLine, error) {
	var out []logLine
	pos := 0
	for pos < len(text) {
		nl := strings.IndexByte(text[pos:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("weblog: unterminated line at byte %d", pos)
		}
		end := pos + nl
		ln, err := parseLogLine(text, pos, end)
		if err != nil {
			return nil, err
		}
		out = append(out, ln)
		pos = end + 1
	}
	return out, nil
}

func parseLogLine(text string, start, end int) (logLine, error) {
	var ln logLine
	i := start
	next := func(stop byte) (field, error) {
		j := strings.IndexByte(text[i:end], stop)
		if j <= 0 {
			return field{}, fmt.Errorf("weblog: malformed line %q", text[start:end])
		}
		f := field{i, i + j}
		i += j + 1
		return f, nil
	}
	var err error
	for _, dst := range []*field{&ln.ip, &ln.m, &ln.p, &ln.st, &ln.b} {
		if *dst, err = next(' '); err != nil {
			return ln, err
		}
	}
	if i >= end || text[i] != '"' {
		return ln, fmt.Errorf("weblog: agent not quoted in %q", text[start:end])
	}
	i++
	q := strings.IndexByte(text[i:end], '"')
	if q < 0 {
		return ln, fmt.Errorf("weblog: agent not closed in %q", text[start:end])
	}
	st := text[ln.st.start:ln.st.end]
	ln.errorStatus = st == "404" || st == "503"
	ln.a = field{i, i + q}
	i += q + 1
	const refTag = " ref="
	switch {
	case i == end:
	case strings.HasPrefix(text[i:end], refTag) && i+len(refTag) < end:
		ln.hasRef = true
		ln.r = field{i + len(refTag), end}
	default:
		return ln, fmt.Errorf("weblog: trailing text in %q", text[start:end])
	}
	return ln, nil
}

// lineMappings is the reference output of the examples/weblog line
// spanner (method m, path p, status st, referer r when present).
func lineMappings(lines []logLine) []mapping {
	out := make([]mapping, len(lines))
	for i, ln := range lines {
		m := mapping{"m": ln.m, "p": ln.p, "st": ln.st}
		if ln.hasRef {
			m["r"] = ln.r
		}
		out[i] = m
	}
	return out
}

// parseSellers is the reference output of the examples/landregistry
// seller spanner over a generated land-registry document:
//
//	Seller: NAME, IDnnn[, $TAX]\n   → name, id, tax when present
//	Buyer: NAME, IDnnn, Pnn\n       → nothing
func parseSellers(text string) ([]mapping, error) {
	var out []mapping
	pos := 0
	for pos < len(text) {
		nl := strings.IndexByte(text[pos:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("landregistry: unterminated row at byte %d", pos)
		}
		end := pos + nl
		row := text[pos:end]
		switch {
		case strings.HasPrefix(row, "Buyer: "):
		case strings.HasPrefix(row, "Seller: "):
			m, err := parseSeller(text, pos, end)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		default:
			return nil, fmt.Errorf("landregistry: unexpected row %q", row)
		}
		pos = end + 1
	}
	return out, nil
}

func parseSeller(text string, start, end int) (mapping, error) {
	const tag = "Seller: "
	nameStart := start + len(tag)
	comma := strings.Index(text[nameStart:end], ", ID")
	if comma < 0 {
		return nil, fmt.Errorf("landregistry: seller row without ID: %q", text[start:end])
	}
	m := mapping{"name": {nameStart, nameStart + comma}}
	idStart := nameStart + comma + len(", ID")
	idEnd := idStart
	for idEnd < end && text[idEnd] >= '0' && text[idEnd] <= '9' {
		idEnd++
	}
	m["id"] = field{idStart, idEnd}
	switch rest := text[idEnd:end]; {
	case rest == "":
	case strings.HasPrefix(rest, ", $"):
		m["tax"] = field{idEnd + len(", $"), end}
	default:
		return nil, fmt.Errorf("landregistry: trailing text in seller row %q", text[start:end])
	}
	return m, nil
}
