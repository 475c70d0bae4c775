package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"spanners/client"
	"spanners/internal/workload"
)

// explore: an open loop of streaming extractions over 32-line web logs,
// each with a seeded query: half from a hot set of expressions (served
// from the spanner LRU), a third novel field extractors drawn from
// the queries.go grammar (compiled on arrival, quantifier stacks
// included), the rest novel algebra over four registered leaves
// (planned and composed on arrival). Compilation, the planner and the
// service cache are the layers this mix exercises that the others do
// not. The grammars' spaces are far larger than the 256-entry LRU, so
// misses stay steady across the run.

const (
	exploreLines   = 32
	explorePool    = 64
	exploreHotSet  = 24
	exploreHotFrac = 0.50
	exploreRGXFrac = 0.35 // novel RGX; the rest (0.15) is novel algebra
	// exploreRate is about a third of the mix's closed-loop capacity on
	// the recording machine (2-core Xeon; see README.md).
	exploreRate = 160.0
)

type exploreDoc struct {
	text  string
	lines []logLine
}

type explore struct {
	seed uint64
	hot  []lineQuery
	refs []string // pinned leaf references, in algebraLeaves order
	docs []exploreDoc
}

func newExplore(seed uint64) (*explore, error) {
	e := &explore{seed: seed}
	rng := rand.New(rand.NewPCG(seed, 2))
	for k := 0; k < explorePool; k++ {
		text := workload.WebLog(workload.WebLogOptions{Lines: exploreLines, ReferProb: 0.35, Seed: int64(rng.Uint64() >> 1)})
		lines, err := parseWebLog(text)
		if err != nil {
			return nil, err
		}
		e.docs = append(e.docs, exploreDoc{text, lines})
	}
	// The hot set is the workload's fixed vocabulary, the same for
	// every seed: with a per-seed hot set, which 24 queries happened to
	// be drawn moved set-up time and latency more than anything else
	// that varies between seeds.
	hot := rand.New(rand.NewPCG(0, 2))
	for k := 0; k < exploreHotSet; k++ {
		e.hot = append(e.hot, randomLineQuery(hot))
	}
	return e, nil
}

func (e *explore) rate() float64           { return exploreRate }
func (e *explore) mid() float64            { return 0.5 }                  // hot and novel RGX streams are 85%
func (e *explore) tail() (string, float64) { return "novel_algebra", 0.5 } // the slowest 15%

func (e *explore) params() map[string]any {
	return map[string]any{
		"loop": "open", "rate_ops_per_s": exploreRate, "connections": "min(2, nproc)",
		"doc_lines": exploreLines, "doc_pool": explorePool, "hot_set": exploreHotSet,
		"mix": map[string]float64{"hot": exploreHotFrac, "novel_rgx": exploreRGXFrac,
			"novel_algebra": 1 - exploreHotFrac - exploreRGXFrac},
		"max_quantifier_stack": maxStack, "algebra_ops": "union, project, difference",
	}
}

func (e *explore) setup(ctx context.Context, c *servedCluster) error {
	e.refs = e.refs[:0]
	for _, l := range algebraLeaves {
		ref, err := c.register(ctx, l.name, l.expr)
		if err != nil {
			return err
		}
		e.refs = append(e.refs, ref)
	}
	// Warm-up: the hot set once (so it is resident in the LRU) and one
	// projection per leaf (so the planner's leaf automata are built).
	doc := e.docs[0]
	for _, q := range e.hot {
		ref := func(d exploreDoc) []mapping { return q.reference(d.lines, d.text) }
		if _, err := e.stream(ctx, c, client.Query{Expr: q.expr()}, doc, ref, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for i := range algebraLeaves {
		a := &algExpr{op: "project", args: []*algExpr{{op: "leaf", leaf: i}}, keep: []string{"p"}}
		ref := func(d exploreDoc) []mapping { return a.eval(d.lines, d.text) }
		if _, err := e.stream(ctx, c, client.Query{Algebra: a.render(e.refs)}, doc, ref, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// query draws op i's query and its class, with the reference function
// for it.
func (e *explore) query(rng *rand.Rand) (client.Query, string, func(exploreDoc) []mapping) {
	switch u := rng.Float64(); {
	case u < exploreHotFrac:
		q := e.hot[rng.IntN(len(e.hot))]
		return client.Query{Expr: q.expr()}, "hot", func(d exploreDoc) []mapping { return q.reference(d.lines, d.text) }
	case u < exploreHotFrac+exploreRGXFrac:
		q := randomLineQuery(rng)
		return client.Query{Expr: q.expr()}, "novel_rgx", func(d exploreDoc) []mapping { return q.reference(d.lines, d.text) }
	default:
		a := randomAlgExpr(rng, 2+rng.IntN(2))
		return client.Query{Algebra: a.render(e.refs)}, "novel_algebra", func(d exploreDoc) []mapping { return a.eval(d.lines, d.text) }
	}
}

func (e *explore) op(ctx context.Context, c *servedCluster, i int) opStat {
	rng := rand.New(rand.NewPCG(e.seed, uint64(i)+2<<32))
	doc := e.docs[rng.IntN(len(e.docs))]
	q, class, ref := e.query(rng)
	s := opStat{kind: "stream", class: class, sent: time.Now(), bytes: len(doc.text)}
	s.mappings, s.err = e.stream(ctx, c, q, doc, ref, &s)
	if s.done.IsZero() {
		s.done = time.Now()
	}
	if s.first.IsZero() {
		s.first = s.done
	}
	return s
}

// stream runs one streaming extraction and checks the whole answer.
// The op, when given, is stamped at the first mapping and at the end
// of the stream, both before the check.
func (e *explore) stream(ctx context.Context, c *servedCluster, q client.Query, doc exploreDoc,
	ref func(exploreDoc) []mapping, s *opStat) (int, error) {
	st, err := c.gen.ExtractStream(ctx, client.StreamRequest{Query: q, Doc: doc.text})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var got []client.Result
	for {
		r, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		if s != nil && len(got) == 0 {
			s.first = time.Now()
		}
		got = append(got, r)
	}
	if s != nil {
		s.done = time.Now()
	}
	if err := checkResults(got, keySet(doc.text, ref(doc))); err != nil {
		return 0, fmt.Errorf("stream %+v: %w", q, err)
	}
	return len(got), nil
}

func (e *explore) finalCheck(context.Context, *servedCluster) error { return nil }
