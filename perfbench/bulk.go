package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"spanners/client"
	"spanners/internal/workload"
)

// bulk: a closed loop of batch extractions. Each op POSTs 4 inline
// documents of one kind, two at |d| and two at 2|d| lines, laid out
// [d, d, 2d, 2d] so the gate's round-robin hands each shard one of
// each size. The program sweeps and the enumerate walk do nearly all
// the work, compilation none, and the |d|/2|d| split is what exposes
// the enumerate walk's growth rate.

const (
	// lineSpanner is the examples/weblog line spanner (optional r).
	lineSpanner = `.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`
	// sellerSpanner is the examples/landregistry seller spanner
	// (optional tax).
	sellerSpanner = `.*(Seller: name{[^,\n]*}, ID(id{\d*})(, \$tax{[^\n]*}|)\n).*`

	bulkLines     = 128 // |d|; the large class is 2|d|
	bulkBatch     = 4
	bulkPoolPerSz = 16 // documents per kind and size class
	// bulkWeblogEvery: every fourth batch carries web logs, the rest
	// land-registry rows. A web-log batch costs about four
	// land-registry batches, so at one in four the latency median sits
	// inside the land-registry mode and p90 inside the web-log mode,
	// away from the gap between them. A fixed cycle rather than a
	// random draw keeps the share exact in every run.
	bulkWeblogEvery = 4
)

type bulkDoc struct {
	text string
	want []string
}

type bulk struct {
	refs [2]string       // registered line and seller spanners
	pool [2][2][]bulkDoc // kind (0 web log, 1 land registry) × size class
}

func newBulk(seed uint64) (*bulk, error) {
	b := &bulk{}
	rng := rand.New(rand.NewPCG(seed, 1))
	for size := 0; size < 2; size++ {
		lines := bulkLines << size
		for k := 0; k < bulkPoolPerSz; k++ {
			text := workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.35, Seed: int64(rng.Uint64() >> 1)})
			parsed, err := parseWebLog(text)
			if err != nil {
				return nil, err
			}
			b.pool[0][size] = append(b.pool[0][size], bulkDoc{text, keySet(text, lineMappings(parsed))})
			text = workload.LandRegistry(workload.LandRegistryOptions{Rows: lines, TaxProb: 0.4, Seed: int64(rng.Uint64() >> 1)})
			sellers, err := parseSellers(text)
			if err != nil {
				return nil, err
			}
			b.pool[1][size] = append(b.pool[1][size], bulkDoc{text, keySet(text, sellers)})
		}
	}
	return b, nil
}

func (b *bulk) rate() float64           { return 0 }
func (b *bulk) mid() float64            { return 0.5 }     // land-registry batches are three quarters
func (b *bulk) tail() (string, float64) { return "", 0.9 } // web-log batches are the slowest quarter

func (b *bulk) params() map[string]any {
	return map[string]any{
		"loop": "closed", "clients": "min(2, nproc)", "batch_docs": bulkBatch,
		"lines_d": bulkLines, "lines_2d": 2 * bulkLines, "batch_layout": "d,d,2d,2d",
		"weblog_batch_share": 1.0 / bulkWeblogEvery, "pool_docs_per_kind_and_size": bulkPoolPerSz,
		"spanners": []string{lineSpanner, sellerSpanner},
	}
}

func (b *bulk) setup(ctx context.Context, c *servedCluster) error {
	var err error
	if b.refs[0], err = c.register(ctx, "weblog-line", lineSpanner); err != nil {
		return err
	}
	if b.refs[1], err = c.register(ctx, "land-seller", sellerSpanner); err != nil {
		return err
	}
	// Warm-up: two batches per kind, so each program's lazy DFA has
	// seen both kinds and sizes before the clock starts.
	for kind := 0; kind < 2; kind++ {
		for k := 0; k < 2; k++ {
			if err := b.send(ctx, c, kind, b.batch(kind, k), nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// batch returns the documents of the k-th batch of a kind: pair k of
// each size class, in [d, d, 2d, 2d] order. Batches in flight at the
// same time have nearby ordinals and so share no document; the gate
// coalesces identical in-flight (query, document) units, and
// accidental sharing made 7-10% of the documents free in a run.
func (b *bulk) batch(kind, k int) []bulkDoc {
	pair := func(size int) (bulkDoc, bulkDoc) {
		p := b.pool[kind][size]
		j := 2 * k % len(p)
		return p[j], p[j+1]
	}
	d0, d1 := pair(0)
	e0, e1 := pair(1)
	return []bulkDoc{d0, d1, e0, e1}
}

func (b *bulk) op(ctx context.Context, c *servedCluster, i int) opStat {
	// Op i is the (i/4)-th web-log batch or the (i - i/4 - 1)-th
	// land-registry batch.
	kind, k := 1, i-i/bulkWeblogEvery-1
	if i%bulkWeblogEvery == 0 {
		kind, k = 0, i/bulkWeblogEvery
	}
	docs := b.batch(kind, k)
	s := opStat{kind: "batch", class: [2]string{"weblog", "landregistry"}[kind], sent: time.Now()}
	s.err = b.send(ctx, c, kind, docs, &s)
	if s.done.IsZero() {
		s.done = time.Now()
	}
	s.first = s.done
	return s
}

// send extracts one batch and checks every document's answer. The
// op, when given, is stamped done before the check.
func (b *bulk) send(ctx context.Context, c *servedCluster, kind int, docs []bulkDoc, s *opStat) error {
	texts := make([]string, len(docs))
	for k, d := range docs {
		texts[k] = d.text
	}
	res, err := c.gen.Extract(ctx, client.ExtractRequest{Query: client.Query{Spanner: b.refs[kind]}, Docs: texts})
	if s != nil {
		s.done = time.Now()
	}
	if err != nil {
		return err
	}
	if len(res.Results) != len(docs) {
		return fmt.Errorf("batch: %d result arrays for %d documents", len(res.Results), len(docs))
	}
	for k, d := range docs {
		if err := checkResults(res.Results[k], d.want); err != nil {
			return fmt.Errorf("batch document %d: %w", k, err)
		}
		if s != nil {
			s.bytes += len(d.text)
			s.mappings += len(d.want)
		}
	}
	return nil
}

func (b *bulk) finalCheck(context.Context, *servedCluster) error { return nil }
