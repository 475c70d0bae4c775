package main

import (
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// Explore's query grammar. A lineQuery is a field extractor over the
// web-log line format: which fields it captures, which literal values
// it filters on, how it treats the optional referer, and how deep a
// stack of +/* quantifiers wraps each unfiltered field. Stacking a
// quantifier over a variable-free field never changes the language on
// these documents (fields are non-empty and space-delimited), so the
// reference function ignores the stacks while the compiler pays for
// them: va.FromRGX copies the operand of each +.

const (
	fIP = iota
	fM
	fP
	fSt
	fB
	fA
	numFields
)

var (
	fieldVars = [numFields]string{"ip", "m", "p", "st", "b", "a"}
	// fieldClass is each field's unfiltered pattern atom.
	fieldClass = [numFields]string{`[0-9.]`, `[A-Z]`, `[^ ]`, `\d`, `\d`, `[^"]`}
	// filterValues are the literal values the generator emits for the
	// filterable fields (method, path, status).
	filterValues = map[int][]string{
		fM:  {"GET", "POST", "PUT", "DELETE"},
		fP:  {"/", "/index.html", "/api/items", "/api/users", "/static/app.js", "/health"},
		fSt: {"200", "301", "404", "503"},
	}
)

// Referer handling of a line query.
const (
	refOptCapture = iota // ( ref=r{…}|)  r assigned when present
	refOptSkip           // ( ref=…|)     any line, r never assigned
	refReqCapture        // ref=r{…}     only lines with a referer
	refReqSkip           // ref=…        only lines with a referer
	refAbsent            // only lines without a referer
	numRefModes
)

// maxStack bounds the quantifier stack depth on one field.
const maxStack = 4

type lineQuery struct {
	capture [numFields]bool
	filter  [numFields][]string // nil: any value
	refMode int
	stack   [numFields]string // quantifier stack, e.g. "+*+"
}

// randomLineQuery draws one query from the grammar: 1–4 captured
// fields, each filterable field filtered with probability 0.3, and
// each unfiltered field stacked to depth 0–maxStack.
func randomLineQuery(rng *rand.Rand) lineQuery {
	var q lineQuery
	for _, f := range rng.Perm(numFields)[:1+rng.IntN(4)] {
		q.capture[f] = true
	}
	for _, f := range []int{fM, fP, fSt} {
		if vals := filterValues[f]; rng.Float64() < 0.3 {
			n := 1 + rng.IntN(len(vals)-1)
			pick := append([]string(nil), vals...)
			rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
			q.filter[f] = pick[:n]
			sort.Strings(q.filter[f])
		}
	}
	q.refMode = rng.IntN(numRefModes)
	for f := range q.stack {
		if q.filter[f] != nil {
			continue
		}
		depth := rng.IntN(maxStack + 1)
		var b strings.Builder
		for i := 0; i < depth; i++ {
			if rng.IntN(3) == 0 {
				b.WriteByte('*')
			} else {
				b.WriteByte('+')
			}
		}
		q.stack[f] = b.String()
	}
	return q
}

// expr renders the query as RGX. Lines are anchored at the document
// start or just after a newline, so no field can match a suffix of
// the text before it.
func (q lineQuery) expr() string {
	var b strings.Builder
	b.WriteString(`(()|.*\n)`)
	for f := 0; f < numFields; f++ {
		var atom string
		switch {
		case q.filter[f] != nil:
			quoted := make([]string, len(q.filter[f]))
			for i, v := range q.filter[f] {
				quoted[i] = quoteMeta(v)
			}
			atom = "(" + strings.Join(quoted, "|") + ")"
		case f == fSt:
			atom = stackQuantifiers(`\d\d\d`, q.stack[f], true)
		default:
			atom = stackQuantifiers(fieldClass[f], q.stack[f], false)
		}
		if q.capture[f] {
			atom = fieldVars[f] + "{" + atom + "}"
		}
		if f == fA {
			b.WriteString(`"` + atom + `"`)
		} else {
			b.WriteString(atom + " ")
		}
	}
	switch q.refMode {
	case refOptCapture:
		b.WriteString(`( ref=r{[^\n]*}|)`)
	case refOptSkip:
		b.WriteString(`( ref=[^\n]*|)`)
	case refReqCapture:
		b.WriteString(` ref=r{[^\n]*}`)
	case refReqSkip:
		b.WriteString(` ref=[^\n]*`)
	}
	b.WriteString(`\n.*`)
	return b.String()
}

// stackQuantifiers wraps atom in the quantifier stack. A field atom
// without a stack still needs one + (fields are non-empty), except a
// fixed-width one.
func stackQuantifiers(atom, stack string, fixed bool) string {
	if stack == "" {
		if fixed {
			return atom
		}
		return atom + "+"
	}
	out := atom
	for i, q := range stack {
		if i == 0 && !fixed {
			out += string(q)
			continue
		}
		out = "(" + out + ")" + string(q)
	}
	return out
}

// quoteMeta escapes RGX metacharacters in a literal.
func quoteMeta(s string) string {
	var b strings.Builder
	for _, r := range s {
		if strings.ContainsRune(`\.+*?()|[]{}^$`, r) {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// reference evaluates the query over parsed lines.
func (q lineQuery) reference(lines []logLine, text string) []mapping {
	var out []mapping
	for _, ln := range lines {
		fs := [numFields]field{ln.ip, ln.m, ln.p, ln.st, ln.b, ln.a}
		ok := true
		for f := 0; f < numFields && ok; f++ {
			if q.filter[f] != nil {
				ok = slices.Contains(q.filter[f], text[fs[f].start:fs[f].end])
			}
		}
		switch q.refMode {
		case refReqCapture, refReqSkip:
			ok = ok && ln.hasRef
		case refAbsent:
			ok = ok && !ln.hasRef
		}
		if !ok {
			continue
		}
		m := mapping{}
		for f := 0; f < numFields; f++ {
			if q.capture[f] {
				m[fieldVars[f]] = fs[f]
			}
		}
		if ln.hasRef && (q.refMode == refOptCapture || q.refMode == refReqCapture) {
			m["r"] = ln.r
		}
		out = append(out, m)
	}
	return out
}

// The four registered algebra leaves, each a line extractor that
// captures the path p. The leaves skip the rest of a line with [^\n]*
// rather than spelling out every field, which keeps the automata the
// planner composes small.
var algebraLeaves = []struct {
	name string
	expr string
	vars []string
	ref  func(ln logLine) (mapping, bool)
}{
	{"lm", `(()|.*\n)[^ ]+ m{[A-Z]+} p{[^ ]+} [^\n]*\n.*`, []string{"m", "p"},
		func(ln logLine) (mapping, bool) { return mapping{"m": ln.m, "p": ln.p}, true }},
	{"ls", `(()|.*\n)[^ ]+ [A-Z]+ p{[^ ]+} st{\d\d\d} [^\n]*\n.*`, []string{"p", "st"},
		func(ln logLine) (mapping, bool) { return mapping{"p": ln.p, "st": ln.st}, true }},
	{"lr", `(()|.*\n)[^ ]+ [A-Z]+ p{[^ ]+} [^\n]* ref=r{[^\n]*}\n.*`, []string{"p", "r"},
		func(ln logLine) (mapping, bool) { return mapping{"p": ln.p, "r": ln.r}, ln.hasRef }},
	{"le", `(()|.*\n)[^ ]+ [A-Z]+ p{[^ ]+} st{404|503} [^\n]*\n.*`, []string{"p", "st"},
		func(ln logLine) (mapping, bool) { return mapping{"p": ln.p, "st": ln.st}, ln.errorStatus },
	},
}

// algExpr is an algebra expression over the registered leaves, kept
// as a tree so the reference evaluator can walk it.
type algExpr struct {
	op   string // "leaf", "union", "project", "difference"
	leaf int
	args []*algExpr
	keep []string // project
}

// render prints the expression in the served algebra syntax, with
// every leaf pinned to its registered version.
func (e *algExpr) render(refs []string) string {
	switch e.op {
	case "leaf":
		return refs[e.leaf]
	case "project":
		return "project(" + e.args[0].render(refs) + ", " + strings.Join(e.keep, ", ") + ")"
	default:
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			parts[i] = a.render(refs)
		}
		return e.op + "(" + strings.Join(parts, ", ") + ")"
	}
}

// vars lists the variables e can assign.
func (e *algExpr) vars() []string {
	switch e.op {
	case "leaf":
		return algebraLeaves[e.leaf].vars
	case "project":
		return e.keep
	case "difference":
		return e.args[0].vars()
	}
	set := map[string]bool{}
	for _, a := range e.args {
		for _, v := range a.vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// randomAlgExpr draws a union/project/difference expression over the
// leaves. Differences subtract a leaf-level operand with the same
// variables (filtered statuses, or paths projected from the referer
// leaf), which keeps the determinization behind them small.
//
// Joins are left out: a join of two registered line leaves composes
// in milliseconds, but its automaton is not sequential, so it is
// evaluated by the FPT fallback and took 0.3 to 28 s on one 32-line
// document. At that cost a single join would decide every explore
// latency percentile.
func randomAlgExpr(rng *rand.Rand, depth int) *algExpr {
	leaf := func() *algExpr { return &algExpr{op: "leaf", leaf: rng.IntN(len(algebraLeaves))} }
	project := func(e *algExpr) *algExpr {
		vs := e.vars()
		var keep []string
		for _, v := range vs {
			if rng.IntN(2) == 0 {
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			keep = vs[:1]
		}
		return &algExpr{op: "project", args: []*algExpr{e}, keep: keep}
	}
	if depth <= 0 {
		if rng.IntN(3) == 0 {
			return project(leaf())
		}
		return leaf()
	}
	switch rng.IntN(5) {
	case 0, 1, 2:
		return &algExpr{op: "union", args: []*algExpr{randomAlgExpr(rng, depth-1), randomAlgExpr(rng, depth-1)}}
	case 3:
		return project(randomAlgExpr(rng, depth-1))
	default:
		pLeaf := func(i int) *algExpr {
			return &algExpr{op: "project", args: []*algExpr{{op: "leaf", leaf: i}}, keep: []string{"p"}}
		}
		switch rng.IntN(3) {
		case 0: // status lines that are not errors
			return &algExpr{op: "difference", args: []*algExpr{{op: "leaf", leaf: 1}, {op: "leaf", leaf: 3}}}
		case 1: // paths of lines without a referer
			return &algExpr{op: "difference", args: []*algExpr{pLeaf(0), pLeaf(2)}}
		default: // paths of non-error lines
			return &algExpr{op: "difference", args: []*algExpr{pLeaf(1), pLeaf(3)}}
		}
	}
}

// eval is the reference algebra over mapping sets: union and
// difference are set operations on whole mappings (domain and spans),
// project restricts domains.
func (e *algExpr) eval(lines []logLine, text string) []mapping {
	switch e.op {
	case "leaf":
		var out []mapping
		for _, ln := range lines {
			if m, ok := algebraLeaves[e.leaf].ref(ln); ok {
				out = append(out, m)
			}
		}
		return out
	case "project":
		in := e.args[0].eval(lines, text)
		out := make([]mapping, 0, len(in))
		for _, m := range in {
			p := mapping{}
			for _, v := range e.keep {
				if f, ok := m[v]; ok {
					p[v] = f
				}
			}
			out = append(out, p)
		}
		return dedup(out, text)
	case "union":
		var all []mapping
		for _, a := range e.args {
			all = append(all, a.eval(lines, text)...)
		}
		return dedup(all, text)
	case "difference":
		drop := map[string]bool{}
		for _, m := range e.args[1].eval(lines, text) {
			drop[m.key(text)] = true
		}
		var out []mapping
		for _, m := range dedup(e.args[0].eval(lines, text), text) {
			if !drop[m.key(text)] {
				out = append(out, m)
			}
		}
		return out
	}
	panic("perfbench: unknown algebra operator " + e.op)
}

func dedup(ms []mapping, text string) []mapping {
	seen := map[string]bool{}
	out := ms[:0:0]
	for _, m := range ms {
		if k := m.key(text); !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	return out
}
