package eval

import (
	"math/bits"
	"sort"
	"strconv"

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

// progOpAt records one fired operation during compiled enumeration.
type progOpAt struct {
	v    uint8
	open bool
	pos  int
}

// enumerateSequentialProg streams ⟦A⟧_d for a sequential automaton by
// walking the document once per output branch: at every boundary the
// reachable state set is split by the set of variable operations
// fired there, and the DFS branches on that choice. Two properties of
// sequential automata make this both correct and output-efficient:
//
//   - every path from the start state is a valid run prefix, so a
//     branch never has to re-check variable discipline; and
//   - the permissive co-reachability index is exact, so a branch is
//     pruned the moment it cannot reach acceptance — every surviving
//     branch produces at least one output, giving delay O(|d|·|δ|)
//     between outputs without the Eval-oracle probing of Algorithm 2.
//
// A mapping is exactly the sequence of boundary operation sets, so
// distinct branches produce distinct mappings and no deduplication is
// needed. Frontiers and co-reachability are bitsets, boundary
// operation sets program.OpMask values; outputs come in deterministic
// order (boundary sets in canonical order at each position).
func (e *Engine) enumerateSequentialProg(d *span.Document, yield func(span.Mapping) bool) {
	if e.prefilterRejects(d) {
		return
	}
	e.enumerateSequentialProgFrom(d, e.backwardReachProg(d), yield)
}

// enumerateSequentialProgFrom is enumerateSequentialProg with the
// co-reach sweep hoisted out, so the observed path can time the sweep
// and the walk as separate stages.
func (e *Engine) enumerateSequentialProgFrom(d *span.Document, bwd []program.Bits, yield func(span.Mapping) bool) {
	p := e.prog
	n := d.Len()

	var fired []progOpAt
	emit := func() bool {
		m := make(span.Mapping)
		opens := make(map[uint8]int, 2)
		for _, f := range fired {
			if f.open {
				opens[f.v] = f.pos
			} else {
				m[p.Vars[f.v]] = span.Span{Start: opens[f.v], End: f.pos}
			}
		}
		return yield(m)
	}

	start := program.NewBits(p.NumStates)
	start.Set(p.Start)

	// The boundary-emission memo carries choice sets across positions
	// (and across documents): walks re-deriving the same (frontier,
	// co-reach) pair pay one interned lookup instead of the BFS.
	bm := e.newBMCtx(bwd)
	defer bm.done()
	emissions := func(set program.Bits, pos int) []progEmission {
		if bm == nil {
			return e.boundaryEmissionsProg(set, bwd[pos])
		}
		return bm.emissions(set, pos)
	}

	var dfs func(set program.Bits, pos int) bool
	dfs = func(set program.Bits, pos int) bool {
		for _, ch := range emissions(set, pos) {
			if pos == n+1 {
				if !ch.states.Intersects(p.Final) {
					continue
				}
				for _, t := range ch.ops {
					fired = append(fired, progOpAt{v: t.v, open: t.open, pos: pos})
				}
				ok := emit()
				fired = fired[:len(fired)-len(ch.ops)]
				if !ok {
					return false
				}
				continue
			}
			next := e.letterAdvanceProg(ch.states, d.RuneAt(pos), bwd[pos+1])
			if next == nil {
				continue
			}
			for _, t := range ch.ops {
				fired = append(fired, progOpAt{v: t.v, open: t.open, pos: pos})
			}
			ok := dfs(next, pos+1)
			fired = fired[:len(fired)-len(ch.ops)]
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(start, 1)
}

// progOpTok is one operation of a boundary choice.
type progOpTok struct {
	v    uint8
	open bool
}

// progEmission is one boundary choice of the compiled enumerator.
type progEmission struct {
	ops    []progOpTok
	states program.Bits
}

// maskKey renders an op mask as its canonical sorted token string,
// the order key of boundary choices.
func (e *Engine) maskKey(m program.OpMask) string {
	p := e.prog
	toks := make([]string, 0, m.Count())
	for w := m.Open; w != 0; w &= w - 1 {
		toks = append(toks, "o"+string(p.Vars[bits.TrailingZeros64(w)]))
	}
	for w := m.Close; w != 0; w &= w - 1 {
		toks = append(toks, "c"+string(p.Vars[bits.TrailingZeros64(w)]))
	}
	sort.Strings(toks)
	k := ""
	for _, t := range toks {
		k += t + ";"
	}
	return k
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

	type cfg struct {
		q    int32
		mask program.OpMask
	}
	seen := map[cfg]bool{}
	var queue []cfg
	alive.ForEach(func(q int) {
		c := cfg{q: int32(q)}
		seen[c] = true
		queue = append(queue, c)
	})
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, ed := range p.OpsFrom(int(c.q)) {
			if c.mask.Intersects(ed.Mask) {
				continue // an operation fires at most once per run
			}
			if !coReach.Has(int(ed.To)) {
				continue
			}
			nc := cfg{q: ed.To, mask: c.mask.Or(ed.Mask)}
			if !seen[nc] {
				seen[nc] = true
				queue = append(queue, nc)
			}
		}
	}

	byMask := map[program.OpMask]program.Bits{}
	for c := range seen {
		s := byMask[c.mask]
		if s == nil {
			s = program.NewBits(p.NumStates)
			byMask[c.mask] = s
		}
		s.Set(int(c.q))
	}
	masks := make([]program.OpMask, 0, len(byMask))
	for m := range byMask {
		masks = append(masks, m)
	}
	// Canonical order: operation-firing choices before the do-nothing
	// choice (so outputs come out in document order), then by op-set
	// key so enumeration is deterministic.
	sort.Slice(masks, func(i, j int) bool {
		if masks[i].IsZero() != masks[j].IsZero() {
			return masks[j].IsZero()
		}
		return e.maskKey(masks[i]) < e.maskKey(masks[j])
	})

	out := make([]progEmission, 0, len(masks))
	for _, m := range masks {
		ops := make([]progOpTok, 0, m.Count())
		for w := m.Open; w != 0; w &= w - 1 {
			ops = append(ops, progOpTok{v: uint8(bits.TrailingZeros64(w)), open: true})
		}
		for w := m.Close; w != 0; w &= w - 1 {
			ops = append(ops, progOpTok{v: uint8(bits.TrailingZeros64(w)), open: false})
		}
		sort.Slice(ops, func(i, j int) bool {
			if p.Vars[ops[i].v] != p.Vars[ops[j].v] {
				return p.Vars[ops[i].v] < p.Vars[ops[j].v]
			}
			return ops[i].open && !ops[j].open
		})
		out = append(out, progEmission{ops: ops, states: byMask[m]})
	}
	return out
}

// letterAdvanceProg moves a state set across one letter, pruning by
// co-reachability; nil means the branch died.
func (e *Engine) letterAdvanceProg(set program.Bits, r rune, coReach program.Bits) program.Bits {
	p := e.prog
	c := p.ClassOf(r)
	if c < 0 {
		return nil
	}
	next := program.NewBits(p.NumStates)
	if !p.LetterStep(set, c, next) {
		return nil
	}
	next.And(coReach)
	if !next.Any() {
		return nil
	}
	return next
}

// countDFASweepMinStates gates the reverse-DFA co-reach sweep on the
// count path: a program this small steps its one-word bitsets faster
// than it resolves memoized transitions (the count/sequential
// regression of the benchmark history), so engine selection is
// per-path — the count sweep picks the raw stepper on tiny programs
// while Match and the enumerator keep the DFA.
const countDFASweepMinStates = 16

// countProg is the memoized counting DP of Count over (position,
// state set) configurations; memo keys are raw bitset words. Boundary choice sets resolve through the cross-position
// emission memo, which dedups the per-position BFS the DP's own
// (position, set) memo cannot.
func (e *Engine) countProg(d *span.Document) int {
	if e.prefilterRejects(d) {
		return 0
	}
	p := e.prog
	nDoc := d.Len()
	var bwd []program.Bits
	if p.NumStates >= countDFASweepMinStates {
		bwd = e.backwardReachProg(d)
	} else {
		bwd = e.backwardReachProgRaw(d)
	}
	bm := e.newBMCtx(bwd)
	defer bm.done()
	emissions := func(set program.Bits, pos int) []progEmission {
		if bm == nil {
			return e.boundaryEmissionsProg(set, bwd[pos])
		}
		return bm.emissions(set, pos)
	}
	memo := map[string]int{}
	var count func(set program.Bits, pos int) int
	count = func(set program.Bits, pos int) int {
		key := strconv.Itoa(pos) + ":" + set.Key()
		if c, ok := memo[key]; ok {
			return c
		}
		total := 0
		for _, ch := range emissions(set, pos) {
			if pos == nDoc+1 {
				if ch.states.Intersects(p.Final) {
					total++
				}
				continue
			}
			next := e.letterAdvanceProg(ch.states, d.RuneAt(pos), bwd[pos+1])
			if next != nil {
				total += count(next, pos+1)
			}
		}
		memo[key] = total
		return total
	}
	start := program.NewBits(p.NumStates)
	start.Set(p.Start)
	return count(start, 1)
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

// backwardReachProgRaw is the direct bitset co-reach sweep: the DFA
// fallback, and the per-path choice of countProg on programs too
// small for memoized stepping to pay.
func (e *Engine) backwardReachProgRaw(d *span.Document) []program.Bits {
	p := e.prog
	n := d.Len()
	out := make([]program.Bits, n+2)
	cur := p.Final.Clone()
	p.ROpClosure(cur)
	out[n+1] = cur
	for pos := n; pos >= 1; pos-- {
		prev := program.NewBits(p.NumStates)
		if c := p.ClassOf(d.RuneAt(pos)); c >= 0 {
			p.LetterStepBack(cur, c, prev)
		}
		p.ROpClosure(prev)
		out[pos] = prev
		cur = prev
	}
	return out
}

// candidateSpansProg computes, for each variable, an
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
// and non-sequential automata alike.
func (e *Engine) candidateSpansProg(d *span.Document) map[span.Var][]span.Span {
	return e.candidateSpansProgFrom(d, e.forwardReachProg(d), e.backwardReachProg(d))
}

// candidateSpansProgFrom is candidateSpansProg with both reachability
// sweeps hoisted out, so the observed path can time them as separate
// stages.
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
