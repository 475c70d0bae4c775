package main

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"spanners/client"
	"spanners/internal/workload"
)

// live: an open loop of edits beside reads over stored web logs, the
// edit model of dynamic spanner maintenance. Tail appends of one line
// and mid-document line replacements are PATCHed into the store;
// reads extract by doc_ids with the pinned line spanner, which the
// shard serves from the document's incremental session. The docstore
// and the incremental sessions do the work; a read of an unchanged
// document costs only result encoding, so the full enumerate walk is
// bypassed after set-up.

const (
	liveDocs       = 32
	liveLines      = 256
	liveAppendFrac = 0.45
	liveSpliceFrac = 0.10 // the rest (0.45) are doc_ids reads
	// liveRate is about a third of the mix's closed-loop capacity on the
	// recording machine (2-core Xeon; see README.md).
	liveRate = 165.0
)

// liveDoc is one stored document and the benchmark's shadow of its
// text. mu serializes the operations on the document, so the shadow
// always matches what the shard holds when an answer is checked.
type liveDoc struct {
	id   string
	mu   sync.Mutex
	text string
}

type live struct {
	seed uint64
	ref  string
	init []string
	docs []*liveDoc
}

func newLive(seed uint64) *live {
	l := &live{seed: seed}
	rng := rand.New(rand.NewPCG(seed, 3))
	for k := 0; k < liveDocs; k++ {
		l.init = append(l.init, workload.WebLog(workload.WebLogOptions{Lines: liveLines, ReferProb: 0.35, Seed: int64(rng.Uint64() >> 1)}))
	}
	return l
}

func (l *live) rate() float64           { return liveRate }
func (l *live) mid() float64            { return 0.25 }        // the middle of the writes, which are 55%
func (l *live) tail() (string, float64) { return "read", 0.5 } // the slowest 45%

func (l *live) params() map[string]any {
	return map[string]any{
		"loop": "open", "rate_ops_per_s": liveRate, "connections": "min(2, nproc)",
		"docs": liveDocs, "initial_lines": liveLines,
		"mix": map[string]float64{"append": liveAppendFrac, "splice": liveSpliceFrac,
			"docx": 1 - liveAppendFrac - liveSpliceFrac},
		"spanner": lineSpanner,
	}
}

func (l *live) setup(ctx context.Context, c *servedCluster) error {
	var err error
	if l.ref, err = c.register(ctx, "weblog-line", lineSpanner); err != nil {
		return err
	}
	l.docs = l.docs[:0]
	for k, text := range l.init {
		d := &liveDoc{id: fmt.Sprintf("log-%02d", k), text: text}
		if _, _, err := c.gen.PutDocument(ctx, d.id, text); err != nil {
			return fmt.Errorf("put %s: %w", d.id, err)
		}
		l.docs = append(l.docs, d)
	}
	// Warm-up: one read per document seeds its incremental session,
	// over as many connections as the run itself uses.
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan *liveDoc)
	)
	for k := 0; k < c.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				if _, err := l.read(ctx, c, d, nil); err != nil {
					mu.Lock()
					first = cmp.Or(first, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, d := range l.docs {
		next <- d
	}
	close(next)
	wg.Wait()
	if first != nil {
		return fmt.Errorf("warm-up: %w", first)
	}
	return nil
}

// newLine generates one web-log line from rng.
func newLine(rng *rand.Rand) string {
	return workload.WebLog(workload.WebLogOptions{Lines: 1, ReferProb: 0.35, Seed: int64(rng.Uint64() >> 1)})
}

func (l *live) op(ctx context.Context, c *servedCluster, i int) opStat {
	rng := rand.New(rand.NewPCG(l.seed, uint64(i)+3<<32))
	d := l.docs[rng.IntN(len(l.docs))]
	u := rng.Float64()
	line := newLine(rng)
	pick := rng.Float64()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := opStat{sent: time.Now()}
	switch {
	case u < liveAppendFrac:
		s.kind, s.class = "patch", "append"
		s.err = l.patch(ctx, c, d, client.Splice{Offset: len(d.text), Insert: line})
	case u < liveAppendFrac+liveSpliceFrac:
		// Replace one whole line from the middle half of the document.
		s.kind, s.class = "patch", "splice"
		start, end := lineAt(d.text, 0.25+pick/2)
		s.err = l.patch(ctx, c, d, client.Splice{Offset: start, DeleteLen: end - start, Insert: line})
	default:
		s.kind, s.class = "docx", "read"
		s.bytes = len(d.text)
		s.mappings, s.err = l.read(ctx, c, d, &s)
	}
	if s.done.IsZero() {
		s.done = time.Now()
	}
	s.first = s.done
	return s
}

// lineAt returns the byte range, newline included, of the line
// holding the byte at fraction frac of text.
func lineAt(text string, frac float64) (int, int) {
	at := int(frac * float64(len(text)))
	start := strings.LastIndexByte(text[:at], '\n') + 1
	end := at + strings.IndexByte(text[at:], '\n') + 1
	return start, end
}

// patch applies sp on the shard and, once it is acknowledged, to the
// shadow. Callers hold d.mu.
func (l *live) patch(ctx context.Context, c *servedCluster, d *liveDoc, sp client.Splice) error {
	if _, err := c.gen.PatchDocument(ctx, d.id, sp); err != nil {
		return fmt.Errorf("patch %s: %w", d.id, err)
	}
	d.text = d.text[:sp.Offset] + sp.Insert + d.text[sp.Offset+sp.DeleteLen:]
	return nil
}

// read extracts d by reference and checks it against the parser's
// reading of the shadow; the op, when given, is stamped done before
// the check. Callers hold d.mu (set-up runs alone).
func (l *live) read(ctx context.Context, c *servedCluster, d *liveDoc, s *opStat) (int, error) {
	res, err := c.gen.Extract(ctx, client.ExtractRequest{Query: client.Query{Spanner: l.ref}, DocIDs: []string{d.id}})
	if s != nil {
		s.done = time.Now()
	}
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", d.id, err)
	}
	lines, err := parseWebLog(d.text)
	if err != nil {
		return 0, err
	}
	if len(res.Results) != 1 {
		return 0, fmt.Errorf("read %s: %d result arrays", d.id, len(res.Results))
	}
	if err := checkResults(res.Results[0], keySet(d.text, lineMappings(lines))); err != nil {
		return 0, fmt.Errorf("read %s: %w", d.id, err)
	}
	return len(lines), nil
}

// finalCheck fetches every document and re-reads it: the stored text
// must equal the shadow and the read must match the parser.
func (l *live) finalCheck(ctx context.Context, c *servedCluster) error {
	for _, d := range l.docs {
		d.mu.Lock()
		got, err := c.gen.GetDocument(ctx, d.id)
		if err == nil && got.Text != d.text {
			err = fmt.Errorf("document %s: stored text (%d bytes) differs from the edits applied (%d bytes)",
				d.id, len(got.Text), len(d.text))
		}
		if err == nil {
			_, err = l.read(ctx, c, d, nil)
		}
		d.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
