package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"spanners"
	"spanners/internal/docstore"
	"spanners/internal/obs"
	"spanners/internal/program"
	"spanners/internal/registry"
	"spanners/internal/rgx"
	"spanners/internal/service"
	"spanners/internal/va"
	"spanners/internal/workload"
)

// In-process replays for the per-layer numbers the served path cannot
// split out: per-size-class sweep and enumerate costs, per-pattern
// compile costs, per-edit incremental costs. Each replay times calls
// into a module's public functions from here, on inputs drawn from the
// same seed as the workloads. Every traced run makes all of them, so
// each per-layer metric exists on every workload.

// replayResult collects the replayed per-layer values; bases are kept
// beside each ratio.
type replayResult struct {
	patterns                                   int
	parseUs, buildUs, compileUs                float64
	vaStates, progStates                       float64
	compileMs                                  float64 // parse + build + compile
	algQueries                                 int
	composeMs, rewrites, cseHits, compositions float64
	fwdNsPerByte, coNsPerByte, enumNsPerMap    [2]float64 // |d|, 2|d|
	classBytes, classMappings                  [2]float64
	dfaHits, dfaMisses, dfaFlushes             float64
	memoHits, memoMisses                       float64
	batchMs                                    float64
	splices                                    int
	incSteps, incRecomputed                    float64
	patchUs                                    []float64
	docHits, docReplays, docRebuilds, docTotal float64
}

func replayAll(ctx context.Context, seed uint64, tmpRoot string, quick bool) (replayResult, error) {
	var r replayResult
	n := 200
	if quick {
		n = 20
	}
	if err := r.patternsReplay(seed, n); err != nil {
		return r, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "replay-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	reg, err := registry.Open(dir)
	if err != nil {
		return r, err
	}
	svc := service.New(service.Config{Workers: 1, Registry: reg})
	if err := r.algebraReplay(seed, svc, n/5); err != nil {
		return r, err
	}
	reps := 2
	if quick {
		reps = 1
	}
	if err := r.documentReplay(ctx, seed, svc, reps); err != nil {
		return r, err
	}
	if err := r.editReplay(ctx, seed, svc, n/2); err != nil {
		return r, err
	}
	return r, nil
}

// patternsReplay compiles explore's novel patterns stage by stage:
// rgx.Parse → va.FromRGX → program.Compile.
func (r *replayResult) patternsReplay(seed uint64, n int) error {
	for j := 0; j < n; j++ {
		expr := randomLineQuery(rand.New(rand.NewPCG(seed, uint64(j)+4<<32))).expr()
		t0 := time.Now()
		node, err := rgx.Parse(expr)
		if err != nil {
			return fmt.Errorf("replay parse %s: %w", expr, err)
		}
		t1 := time.Now()
		a := va.FromRGX(node)
		t2 := time.Now()
		p, err := program.Compile(a)
		if err != nil {
			return fmt.Errorf("replay compile %s: %w", expr, err)
		}
		t3 := time.Now()
		r.parseUs += float64(t1.Sub(t0)) / 1e3
		r.buildUs += float64(t2.Sub(t1)) / 1e3
		r.compileUs += float64(t3.Sub(t2)) / 1e3
		r.vaStates += float64(a.NumStates)
		r.progStates += float64(p.NumStates)
	}
	r.patterns = n
	f := float64(n)
	r.parseUs, r.buildUs, r.compileUs = r.parseUs/f, r.buildUs/f, r.compileUs/f
	r.vaStates, r.progStates = r.vaStates/f, r.progStates/f
	r.compileMs = (r.parseUs + r.buildUs + r.compileUs) / 1e3
	return nil
}

// algebraReplay plans and composes explore's novel algebra
// expressions through a private service.
func (r *replayResult) algebraReplay(seed uint64, svc *service.Service, n int) error {
	refs := make([]string, len(algebraLeaves))
	for i, l := range algebraLeaves {
		man, _, err := svc.RegisterSpanner(l.name, l.expr)
		if err != nil {
			return fmt.Errorf("replay register %s: %w", l.name, err)
		}
		refs[i] = l.name + "@" + man.Version
	}
	before := svc.Stats().Algebra
	var total time.Duration
	for j := 0; j < n; j++ {
		rng := rand.New(rand.NewPCG(seed, uint64(j)+5<<32))
		expr := randomAlgExpr(rng, 2+rng.IntN(2)).render(refs)
		start := time.Now()
		if _, err := svc.AlgebraSpanner(expr); err != nil {
			return fmt.Errorf("replay compose %s: %w", expr, err)
		}
		total += time.Since(start)
	}
	after := svc.Stats().Algebra
	r.algQueries = n
	r.composeMs = float64(total) / 1e6 / float64(n)
	r.compositions = float64(after.Compositions - before.Compositions)
	r.rewrites = float64(after.Rewrites - before.Rewrites)
	r.cseHits = float64(after.CSEHits - before.CSEHits)
	return nil
}

// documentReplay runs bulk's documents of both size classes through
// the line and seller spanners: the lazy-DFA forward sweep (Matches),
// and EnumerateObserved for the co-reach sweep and the enumerate walk,
// whose stage names are the ones the served histograms use. It also
// times one service batch per kind.
func (r *replayResult) documentReplay(ctx context.Context, seed uint64, svc *service.Service, reps int) error {
	b, err := newBulk(seed)
	if err != nil {
		return err
	}
	var fwdNs, coNs, enumNs [2]float64
	for kind, src := range []string{lineSpanner, sellerSpanner} {
		sp, err := spanners.Compile(src)
		if err != nil {
			return err
		}
		// One untimed pass first, so the lazy DFA's cold misses do not
		// land on whichever size class is timed first.
		for size := 0; size < 2; size++ {
			for _, doc := range b.pool[kind][size] {
				sp.Enumerate(spanners.NewDocument(doc.text), func(spanners.Mapping) bool { return true })
			}
		}
		dfa0, memo0 := sp.DFAStats(), sp.BoundaryMemoStats()
		for rep := 0; rep < reps; rep++ {
			for size := 0; size < 2; size++ {
				for _, doc := range b.pool[kind][size] {
					d := spanners.NewDocument(doc.text)
					t0 := time.Now()
					if !sp.Matches(d) {
						return fmt.Errorf("replay: spanner %d matches nothing on a pooled document", kind)
					}
					fwdNs[size] += float64(time.Since(t0))
					var co, en time.Duration
					o := &obs.StageObserver{Stage: func(name string, d time.Duration) {
						switch name {
						case obs.StageCoReachSweep:
							co += d
						case obs.StageEnumerate:
							en += d
						}
					}}
					got := 0
					if err := sp.EnumerateObserved(ctx, d, o, func(spanners.Mapping) bool { got++; return true }); err != nil {
						return err
					}
					if got != len(doc.want) {
						return fmt.Errorf("replay: %d mappings, the parser finds %d", got, len(doc.want))
					}
					coNs[size] += float64(co)
					enumNs[size] += float64(en)
					r.classBytes[size] += float64(len(doc.text))
					r.classMappings[size] += float64(got)
				}
			}
		}
		dfa, memo := sp.DFAStats(), sp.BoundaryMemoStats()
		r.dfaHits += float64(dfa.Hits - dfa0.Hits)
		r.dfaMisses += float64(dfa.Misses - dfa0.Misses)
		r.dfaFlushes += float64(dfa.Flushes - dfa0.Flushes)
		r.memoHits += float64(memo.Hits - memo0.Hits)
		r.memoMisses += float64(memo.Misses - memo0.Misses)

		// One service batch per kind, timed after a first call has
		// compiled the query, as bulk's pinned batches never compile.
		docs := []string{b.pool[kind][0][0].text, b.pool[kind][0][1].text, b.pool[kind][1][0].text, b.pool[kind][1][1].text}
		for call := 0; call < 2; call++ {
			start := time.Now()
			if _, err := svc.ExtractBatch(ctx, service.Query{Expr: src}, docs); err != nil {
				return err
			}
			if call == 1 {
				r.batchMs += float64(time.Since(start)) / 1e6 / 2
			}
		}
	}
	for size := 0; size < 2; size++ {
		r.fwdNsPerByte[size] = ratio(fwdNs[size], r.classBytes[size])
		r.coNsPerByte[size] = ratio(coNs[size], r.classBytes[size])
		r.enumNsPerMap[size] = ratio(enumNs[size], r.classMappings[size])
	}
	return nil
}

// editReplay applies live's edit mix to one stored web log: through an
// incremental session (Append / Splice and their SpliceStats), and
// through a private service's document store, reading by reference
// after every edit like live's reads do.
func (r *replayResult) editReplay(ctx context.Context, seed uint64, svc *service.Service, n int) error {
	rng := rand.New(rand.NewPCG(seed, 6))
	text := workload.WebLog(workload.WebLogOptions{Lines: liveLines, ReferProb: 0.35, Seed: int64(rng.Uint64() >> 1)})
	sp, err := spanners.Compile(lineSpanner)
	if err != nil {
		return err
	}
	inc, ok := sp.Incremental(text)
	if !ok {
		return fmt.Errorf("replay: the line spanner refused an incremental session")
	}
	const id = "replay"
	if _, err := svc.Documents().Put(id, text); err != nil {
		return err
	}
	q := service.Query{Expr: lineSpanner}
	if _, err := svc.ExtractDocument(ctx, q, id); err != nil {
		return err
	}
	before := svc.Stats().Documents
	for j := 0; j < n; j++ {
		line := newLine(rng)
		var off, del int
		if rng.Float64() < liveAppendFrac/(liveAppendFrac+liveSpliceFrac) {
			off = len(text)
		} else {
			start, end := lineAt(text, 0.25+rng.Float64()/2)
			off, del = start, end-start
		}
		st, err := inc.Splice(off, del, line) // ASCII: rune offsets are byte offsets
		if err != nil {
			return err
		}
		r.incSteps += float64(st.FwdSteps + st.BwdSteps)
		r.incRecomputed += float64(st.Recomputed)
		t0 := time.Now()
		if _, err := svc.Documents().ApplySplice(id, docstore.Splice{Offset: off, DeleteLen: del, Insert: line}); err != nil {
			return err
		}
		r.patchUs = append(r.patchUs, float64(time.Since(t0))/1e3)
		text = text[:off] + line + text[off+del:]
		if _, err := svc.ExtractDocument(ctx, q, id); err != nil {
			return err
		}
	}
	after := svc.Stats().Documents
	r.splices = n
	r.incSteps /= float64(n)
	r.incRecomputed /= float64(n)
	r.docHits = float64(after.IncrementalHits - before.IncrementalHits)
	r.docReplays = float64(after.IncrementalReplays - before.IncrementalReplays)
	r.docRebuilds = float64(after.IncrementalRebuilds - before.IncrementalRebuilds)
	r.docTotal = r.docHits + r.docReplays + r.docRebuilds + float64(after.FullExtractions-before.FullExtractions)

	lines, err := parseWebLog(inc.Text())
	if err != nil {
		return err
	}
	if inc.Text() != text || inc.MappingCount() != len(lines) {
		return fmt.Errorf("replay: incremental session diverged from the edited text")
	}
	return nil
}
