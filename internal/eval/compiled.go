package eval

import (
	"math/bits"
	"sort"
	"strings"

	"spanners/internal/program"
	"spanners/internal/span"
)

// This file holds the evaluation algorithms — Theorems 5.1, 5.7 and
// 5.10 — executed against the flat ε-free instruction tables of
// internal/program. Frontiers are bitsets, variable operations are
// program.OpMask sets, and each document position classifies its rune
// once instead of probing every transition's class predicate.

// evalSeqProg is Theorem 5.7 on the compiled program. At each
// boundary the operations of pinned variables that must fire there
// form an obligation mask: popcount gives the obligation count, and a
// transition's mask tells in one test whether it consumes an
// obligation, is blocked, or passes as ε. The unconstrained case — no
// obligation may block any operation, which covers NonEmpty/Matches —
// runs on the lazy DFA (memoized determinized transitions, fused runs,
// skip loops), falling back to per-rune bitset stepping when the cache
// thrashes its budget.
func (e *Engine) evalSeqProg(d *span.Document, mu span.Extended) bool {
	p := e.prog
	n := d.Len()
	// Prefilter before touching mu or allocating the obligation
	// table: a missing required literal falsifies every run, pinned
	// or not, and the n+2 need slice is the dominant cost of a
	// rejected call on large documents.
	if e.prefilterRejects(d) {
		return false
	}
	var need []program.OpMask
	var blocked program.OpMask
	if len(mu) > 0 {
		need = make([]program.OpMask, n+2)
		for v, o := range mu {
			id, ok := p.VarID(v)
			if !ok {
				if !o.Bottom {
					return false // pinned to a variable no accepting run assigns
				}
				continue
			}
			blocked = blocked.Or(program.OpenBit(id)).Or(program.CloseBit(id))
			if o.Bottom {
				continue
			}
			need[o.Span.Start] = need[o.Span.Start].Or(program.OpenBit(id))
			need[o.Span.End] = need[o.Span.End].Or(program.CloseBit(id))
		}
	}
	if e.DFAEnabled() {
		if blocked.IsZero() {
			// No obligations anywhere (need bits imply blocked bits),
			// so the permissive forward DFA decides the run.
			if res, ok := e.dfaMatch(d); ok {
				return res
			}
		} else if res, ok := e.evalSeqSegmented(d, need, blocked); ok {
			return res
		}
	}

	if need == nil {
		need = make([]program.OpMask, n+2)
	}
	cur := program.NewBits(p.NumStates)
	next := program.NewBits(p.NumStates)
	cur.Set(p.Start)
	for pos := 1; pos <= n+1; pos++ {
		if m := need[pos]; m.IsZero() {
			p.OpClosure(cur, blocked)
		} else if !e.obligationClosureProg(cur, m, blocked) {
			return false
		}
		if pos == n+1 {
			break
		}
		c := p.ClassOf(d.RuneAt(pos))
		if c < 0 {
			return false
		}
		next.Clear()
		if !p.LetterStep(cur, c, next) {
			return false
		}
		cur, next = next, cur
	}
	return cur.Intersects(p.Final)
}

// dfaMatch is DFA.Match under the engine's knobs: ForceNoPrefilter
// also withholds the document's ASCII view, disabling stop-byte
// candidate jumps, so the switch reproduces the pre-prefilter DFA
// path exactly (both halves of the literal rung off).
func (e *Engine) dfaMatch(d *span.Document) (matched, ok bool) {
	text := d.ASCIIText()
	if e.noprefilter {
		text = ""
	}
	s, ok := e.dfa.SweepForward(e.dfa.Start(), d.Runes(), text, 0, d.Len(), true)
	if !ok {
		return false, false
	}
	return s.Accept(), true
}

// evalSeqSegmented is the constrained-eval rung of the DFA ladder:
// between obligation boundaries the blocked mask is constant, so the
// per-boundary closure is exactly the forward closure of a DFA whose
// op edges exclude that mask. The sweep therefore splits the document
// at the obligation positions and runs every obligation-free segment
// through the program's per-mask constrained cache
// (program.DFAForMask) — memoized transitions, fused runs, skip
// loops, candidate jumps — falling back to the caller's byte-wise
// bitset loop (ok=false) when the mask family is full or a segment
// thrashes the cache budget. The letter crossing into an obligation
// boundary steps raw: the obligation closure must see the pre-closure
// frontier, matching the bitset loop's closure-then-step order.
func (e *Engine) evalSeqSegmented(d *span.Document, need []program.OpMask, blocked program.OpMask) (res, ok bool) {
	p := e.prog
	cdfa := p.DFAForMask(blocked)
	if cdfa == nil {
		return false, false
	}
	n := d.Len()
	runes := d.Runes()
	text := d.ASCIIText()

	// Obligation boundaries, ascending.
	var obl []int
	for pos := 1; pos <= n+1; pos++ {
		if !need[pos].IsZero() {
			obl = append(obl, pos)
		}
	}

	var scratch []byte
	cur := program.NewBits(p.NumStates)
	cur.Set(p.Start)
	pos, oi := 1, 0
	for {
		for oi < len(obl) && obl[oi] < pos {
			oi++
		}
		if !need[pos].IsZero() {
			if !e.obligationClosureProg(cur, need[pos], blocked) {
				return false, true
			}
			if pos == n+1 {
				return cur.Intersects(p.Final), true
			}
			// One raw letter step out of the boundary; the closure at
			// pos+1 happens on the next iteration (obligation or
			// segment entry).
			c := p.ClassOf(runes[pos-1])
			if c < 0 {
				return false, true
			}
			next := program.NewBits(p.NumStates)
			if !p.LetterStep(cur, c, next) {
				return false, true
			}
			cur = next
			pos++
			continue
		}
		// Obligation-free segment [pos, segEnd): close the frontier
		// under the blocked mask and sweep it through the constrained
		// DFA.
		segEnd := n + 1
		if oi < len(obl) {
			segEnd = obl[oi]
		}
		p.OpClosure(cur, blocked)
		var s *program.DState
		s, scratch = cdfa.StateScratch(cur, scratch)
		cdfa.NoteSegment()
		if segEnd == n+1 && need[n+1].IsZero() {
			// Sweep to the end of the document; the final boundary's
			// closure is folded into the last forward step, and the
			// entry closure was just applied, so acceptance is the
			// landing state's. (An obligation at n+1 takes the general
			// path below instead: its boundary must see the raw
			// pre-closure frontier.)
			s, swept := cdfa.SweepForward(s, runes, text, pos-1, n, true)
			if !swept {
				return false, false
			}
			return s.Accept(), true
		}
		// Forward-sweep letters pos..segEnd-2, then step the letter
		// into the obligation boundary raw.
		s, swept := cdfa.SweepForward(s, runes, text, pos-1, segEnd-2, false)
		if !swept {
			return false, false
		}
		if s.Dead() {
			return false, true
		}
		c := p.ClassOf(runes[segEnd-2])
		if c < 0 {
			return false, true
		}
		s = cdfa.Step(s, c, program.StepRaw)
		if s.Dead() {
			return false, true
		}
		cur = s.Frontier().Clone()
		pos = segEnd
	}
}

// obligationClosureProg expands cur (in place) at a boundary that must
// consume exactly the obligation mask need: layered bitsets indexed by
// consumed-obligation count. This is sound by sequentiality — no path
// can fire an operation twice, so reaching count == |need| means each
// obligation fired exactly once.
func (e *Engine) obligationClosureProg(cur program.Bits, need, blocked program.OpMask) bool {
	p := e.prog
	total := need.Count()
	words := len(cur)
	backing := make([]uint64, words*(total+1))
	layer := func(c int) program.Bits { return program.Bits(backing[c*words : (c+1)*words]) }

	var stack []int64 // packed count*NumStates + state
	nStates := int64(p.NumStates)
	cur.ForEach(func(q int) {
		layer(0).Set(q)
		stack = append(stack, int64(q))
	})
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, count := int(idx%nStates), int(idx/nStates)
		for _, ed := range p.OpsFrom(q) {
			nc := count
			if ed.Mask.Intersects(need) {
				if count == total {
					continue
				}
				nc = count + 1
			} else if ed.Mask.Intersects(blocked) {
				continue
			}
			if !layer(nc).Has(int(ed.To)) {
				layer(nc).Set(int(ed.To))
				stack = append(stack, int64(nc)*nStates+int64(ed.To))
			}
		}
	}
	cur.CopyFrom(layer(total))
	return cur.Any()
}

// pcfg is a compiled FPT configuration: a program state plus the set
// of operations fired so far, which is the status vector of all
// program variables — a variable is available while its open bit is
// clear, open while only its open bit is set, closed when both are.
type pcfg struct {
	q  int32
	st program.OpMask
}

// evalFPTProg is Theorem 5.10 on the compiled program: reachability
// over (state, fired-operation set) configurations. The frontier is
// group-native — a map from status vector to the bitset of states
// carrying it — so individual configurations materialize only around
// variable-operation edges: the boundary closure expands per-config
// exclusively from states with op edges (the bulk of a letter-heavy
// frontier never enters the worklist), and the letter step advances
// each group's bitset wholesale, through the DFA's raw memoized
// transitions when the cache is enabled and the group is big enough
// to amortize the lookup.
func (e *Engine) evalFPTProg(d *span.Document, mu span.Extended) bool {
	if e.prefilterRejects(d) {
		return false
	}
	p := e.prog
	n := d.Len()
	k := len(p.Vars)

	const (
		clsFree   uint8 = 0
		clsPinned uint8 = 1
		clsBot    uint8 = 2
	)
	class := make([]uint8, k)
	starts := make([]int, k)
	ends := make([]int, k)
	for v, o := range mu {
		id, ok := p.VarID(v)
		if !ok {
			if !o.Bottom {
				return false
			}
			continue
		}
		if o.Bottom {
			class[id] = clsBot
		} else {
			class[id] = clsPinned
			starts[id] = o.Span.Start
			ends[id] = o.Span.End
		}
	}

	start := program.NewBits(p.NumStates)
	start.Set(p.Start)
	frontier := map[program.OpMask]program.Bits{{}: start}

	// closure saturates the frontier at one boundary under op edges,
	// respecting each variable's constraint class. Only states with op
	// edges enter the per-config worklist; everything else is carried
	// over by whole-group bitset ORs.
	closure := func(frontier map[program.OpMask]program.Bits, pos int) map[program.OpMask]program.Bits {
		out := make(map[program.OpMask]program.Bits, len(frontier))
		var stack []pcfg
		add := func(q int32, st program.OpMask) {
			g := out[st]
			if g == nil {
				g = program.NewBits(p.NumStates)
				out[st] = g
			}
			if g.Has(int(q)) {
				return
			}
			g.Set(int(q))
			if p.HasOps.Has(int(q)) {
				stack = append(stack, pcfg{q: q, st: st})
			}
		}
		for st, g := range frontier {
			if !g.Intersects(p.HasOps) {
				// Fast path: no state can fire an operation; adopt the
				// group wholesale.
				og := out[st]
				if og == nil {
					out[st] = g.Clone()
					continue
				}
				og.Or(g)
				continue
			}
			g.ForEach(func(q int) { add(int32(q), st) })
		}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ed := range p.OpsFrom(int(c.q)) {
				v := int(ed.Var)
				bit := uint64(1) << uint(v)
				if ed.Open {
					if c.st.Open&bit != 0 {
						continue
					}
					if class[v] == clsPinned && starts[v] != pos {
						continue
					}
				} else {
					if c.st.Open&bit == 0 || c.st.Close&bit != 0 {
						continue // close before open (or never-opened variable)
					}
					switch class[v] {
					case clsBot:
						continue // closing would assign a ⊥ variable
					case clsPinned:
						if ends[v] != pos {
							continue
						}
					}
				}
				add(ed.To, c.st.Or(ed.Mask))
			}
		}
		return out
	}

	// The DFA pays for a group step once the group is big enough that
	// one memoized lookup beats the direct successor ORs; a cache that
	// starts thrashing its budget mid-document is abandoned for the
	// rest of the run.
	const dfaGroupMinStates = 4
	useDFA := e.DFAEnabled()
	var flush0 uint64
	var scratch []byte
	if useDFA {
		flush0 = e.dfa.Flushes()
	}
	for pos := 1; pos <= n+1; pos++ {
		frontier = closure(frontier, pos)
		if len(frontier) == 0 {
			return false
		}
		if pos == n+1 {
			break
		}
		c := p.ClassOf(d.RuneAt(pos))
		if c < 0 {
			return false
		}
		if useDFA && e.dfa.Flushes()-flush0 > program.MaxFlushesPerSweep {
			e.dfa.NoteFallback()
			useDFA = false
		}
		next := make(map[program.OpMask]program.Bits, len(frontier))
		for st, g := range frontier {
			var stepped program.Bits
			if useDFA && g.Count() >= dfaGroupMinStates {
				// Aliases an interned (read-only) frontier; closure
				// never mutates input groups, so no clone is needed.
				var s *program.DState
				s, scratch = e.dfa.StateScratch(g, scratch)
				stepped = e.dfa.Step(s, c, program.StepRaw).Frontier()
			} else {
				stepped = program.NewBits(p.NumStates)
				p.LetterStep(g, c, stepped)
			}
			if stepped.Any() {
				next[st] = stepped
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return false
		}
	}

	for st, g := range frontier {
		ok := true
		for v := 0; v < k; v++ {
			if class[v] == clsPinned && st.Close&(1<<uint(v)) == 0 {
				ok = false
				break
			}
		}
		if ok && g.Intersects(p.Final) {
			return true
		}
	}
	return false
}

// enumerateSequentialProgFrom streams ⟦A⟧_d for a sequential automaton
// through the boundary walk of walk.go, given the co-reach sweep bwd
// (hoisted out so the observed path can time the sweep and the walk as
// separate stages). Exact co-reachability makes every branch of the
// walk productive, and distinct branches produce distinct mappings, so
// no deduplication is needed; outputs come in deterministic order
// (boundary sets in canonical order at each position).
func (e *Engine) enumerateSequentialProgFrom(d *span.Document, bwd []program.Bits, yield func(span.Mapping) bool) {
	w := e.newSeqWalk(d, 1, d.Len()+1, false, bwd[1:])
	defer w.done()
	w.visit(w.root(nil), yield)
}

// progEmission is one boundary choice of the compiled enumerator: the
// operations it fires and the states they reach.
type progEmission struct {
	mask   program.OpMask
	states program.Bits
}

// maskKey renders an op mask as its canonical sorted token string
// ("c"+var then "o"+var, each ";"-terminated), the order key of
// boundary choices. Vars are sorted by name, so ascending ids already
// give the sorted order.
func (e *Engine) maskKey(m program.OpMask) string {
	var b strings.Builder
	for _, half := range [2]struct {
		tag  string
		word uint64
	}{{"c", m.Close}, {"o", m.Open}} {
		for w := half.word; w != 0; w &= w - 1 {
			b.WriteString(half.tag + string(e.prog.Vars[bits.TrailingZeros64(w)]) + ";")
		}
	}
	return b.String()
}

// boundaryEmissionsProg enumerates the distinct operation sets firable
// from the state set at one boundary via a (state, mask) BFS; the
// global op codes serve directly as mask bits, so no per-boundary
// universe needs interning and every operation of the program's
// program.MaxVars variables can fire. States not co-reachable are
// dropped; choices whose state set dies are omitted.
func (e *Engine) boundaryEmissionsProg(set program.Bits, coReach program.Bits) []progEmission {
	p := e.prog
	// Fast path: no surviving state can fire an operation, so the only
	// choice is the do-nothing emission (or none when the set died).
	alive := set.Clone()
	alive.And(coReach)
	if !alive.Any() {
		return nil
	}
	if !alive.Intersects(p.HasOps) {
		return []progEmission{{states: alive}}
	}

	// The states reached under each fired-operation mask form one
	// choice; the empty mask is exactly the surviving set.
	type cfg struct {
		q    int32
		mask program.OpMask
	}
	byMask := map[program.OpMask]program.Bits{{}: alive}
	var queue []cfg
	alive.ForEach(func(q int) { queue = append(queue, cfg{q: int32(q)}) })
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, ed := range p.OpsFrom(int(c.q)) {
			// An operation fires at most once per run.
			if c.mask.Intersects(ed.Mask) || !coReach.Has(int(ed.To)) {
				continue
			}
			nc := cfg{q: ed.To, mask: c.mask.Or(ed.Mask)}
			s := byMask[nc.mask]
			if s == nil {
				s = program.NewBits(p.NumStates)
				byMask[nc.mask] = s
			}
			if !s.Has(int(nc.q)) {
				s.Set(int(nc.q))
				queue = append(queue, nc)
			}
		}
	}

	// Canonical order: operation-firing choices before the do-nothing
	// choice (so outputs come out in document order), then by op-set
	// key so enumeration is deterministic.
	type choice struct {
		key string
		m   program.OpMask
	}
	cs := make([]choice, 0, len(byMask))
	for m := range byMask {
		cs = append(cs, choice{e.maskKey(m), m})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].m.IsZero() != cs[j].m.IsZero() {
			return cs[j].m.IsZero()
		}
		return cs[i].key < cs[j].key
	})
	out := make([]progEmission, len(cs))
	for i, c := range cs {
		out[i] = progEmission{mask: c.m, states: byMask[c.m]}
	}
	return out
}

// forwardReachProg computes, for every position, the states reachable
// from the start reading the document prefix, operations treated
// permissively as ε. With the DFA enabled the sweep is one memoized
// transition per rune and the returned frontiers alias interned
// (read-only) cache states; the bitset sweep remains as the fallback.
func (e *Engine) forwardReachProg(d *span.Document) []program.Bits {
	if e.DFAEnabled() {
		if out, ok := e.dfa.ForwardFrontiers(d); ok {
			return out
		}
	}
	p := e.prog
	n := d.Len()
	out := make([]program.Bits, n+2)
	cur := program.NewBits(p.NumStates)
	cur.Set(p.Start)
	for pos := 1; pos <= n+1; pos++ {
		p.OpClosure(cur, program.OpMask{})
		out[pos] = cur
		if pos == n+1 {
			break
		}
		next := program.NewBits(p.NumStates)
		if c := p.ClassOf(d.RuneAt(pos)); c >= 0 {
			p.LetterStep(cur, c, next)
		}
		cur = next
	}
	return out
}

// backwardReachProg computes, for every position, the states from
// which a final state is reachable reading the document suffix,
// operations treated permissively as ε. The reverse DFA memoizes the
// per-rune LetterStepBack + ROpClosure composition, which dominates
// enumeration and counting on letter-heavy documents; frontiers it
// returns alias interned (read-only) cache states.
func (e *Engine) backwardReachProg(d *span.Document) []program.Bits {
	if e.DFAEnabled() {
		if out, ok := e.dfa.BackwardFrontiers(d); ok {
			return out
		}
	}
	return e.backwardReachProgRaw(d)
}

// backwardReachProgRaw is the direct bitset co-reach sweep, the DFA
// fallback.
func (e *Engine) backwardReachProgRaw(d *span.Document) []program.Bits {
	return e.coReachRaw(d, 1, d.Len()+1, nil)
}

// coReachRaw sweeps co-reachability backward over boundaries lo..hi
// from the frontier last at hi (nil: the states reaching Final by
// operations alone): out[pos-lo+1] holds the states that reach last at
// hi reading d[pos..hi-1], operations permissive (out[0] is unused, the
// layout of the DFA sweeps).
func (e *Engine) coReachRaw(d *span.Document, lo, hi int, last program.Bits) []program.Bits {
	p := e.prog
	if last == nil {
		last = p.Final.Clone()
		p.ROpClosure(last)
	}
	out := make([]program.Bits, hi-lo+2)
	out[hi-lo+1] = last
	words := len(last)
	backing := make([]uint64, (hi-lo)*words) // one allocation for the sweep
	for pos := hi - 1; pos >= lo; pos-- {
		prev := program.Bits(backing[(pos-lo)*words : (pos-lo+1)*words])
		if c := p.ClassOf(d.RuneAt(pos)); c >= 0 {
			p.LetterStepBack(out[pos-lo+2], c, prev)
		}
		p.ROpClosure(prev)
		out[pos-lo+1] = prev
	}
	return out
}

// candidateSpansProgFrom computes, for each variable, an
// over-approximation of the spans any output mapping can assign it:
// pairs (i, j) such that some letter-consistent path opens the
// variable at position i and closes it at position j. Enumeration then
// probes only these candidates with the Eval oracle instead of all
// O(|d|²) spans, which turns Algorithm 2 from "polynomial" into
// "practical" — the oracle still validates every candidate, so the
// filter cannot change the output set, only skip provably impossible
// spans.
//
// The filter treats variable operations permissively (any operation
// may fire regardless of discipline), so it is sound for sequential
// and non-sequential automata alike. The forward and co-reach sweeps
// are passed in, so the observed path can time them as separate stages.
func (e *Engine) candidateSpansProgFrom(d *span.Document, fwd, bwd []program.Bits) map[span.Var][]span.Span {
	p := e.prog
	n := d.Len()

	// Per-variable open and close edge lists (from, to).
	type edge struct{ from, to int32 }
	opens := make([][]edge, len(p.Vars))
	closes := make([][]edge, len(p.Vars))
	for q := 0; q < p.NumStates; q++ {
		for _, ed := range p.OpsFrom(q) {
			if ed.Open {
				opens[ed.Var] = append(opens[ed.Var], edge{from: int32(q), to: ed.To})
			} else {
				closes[ed.Var] = append(closes[ed.Var], edge{from: int32(q), to: ed.To})
			}
		}
	}

	out := make(map[span.Var][]span.Span, len(e.vars))
	for _, x := range e.vars {
		id, ok := p.VarID(x)
		if !ok {
			out[x] = nil // variable trimmed from every accepting run
			continue
		}
		seen := map[span.Span]bool{}
		frontier := program.NewBits(p.NumStates)
		next := program.NewBits(p.NumStates)
		for _, oe := range opens[id] {
			for pos := 1; pos <= n+1; pos++ {
				if !fwd[pos].Has(int(oe.from)) {
					continue
				}
				// Scan forward from the open, recording positions where
				// a close of x can fire on a surviving path.
				frontier.Clear()
				frontier.Set(int(oe.to))
				for pp := pos; pp <= n+1; pp++ {
					p.OpClosure(frontier, program.OpMask{})
					for _, ce := range closes[id] {
						if frontier.Has(int(ce.from)) && bwd[pp].Has(int(ce.to)) {
							seen[span.Span{Start: pos, End: pp}] = true
						}
					}
					if pp == n+1 {
						break
					}
					c := p.ClassOf(d.RuneAt(pp))
					if c < 0 {
						break
					}
					next.Clear()
					if !p.LetterStep(frontier, c, next) {
						break
					}
					frontier.CopyFrom(next)
				}
			}
		}
		spans := make([]span.Span, 0, len(seen))
		for s := range seen {
			spans = append(spans, s)
		}
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End < spans[j].End
		})
		out[x] = spans
	}
	return out
}
