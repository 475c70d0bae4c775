package eval

import (
	"math/bits"
	"slices"
	"sync"

	"spanners/internal/program"
	"spanners/internal/span"
)

// This file is the sequential enumerator of Theorem 5.7, the one walk
// behind Enumerate, Count and the incremental dirty-window re-walk.
//
// A mapping of a sequential automaton is its sequence of boundary
// operation sets, and the permissive co-reach index is exact, so the
// walk is a DFS over (boundary, co-reach-pruned state set) pairs that
// branches on the operation sets firable at each boundary, and every
// branch ends in an output. Forced boundaries, whose only choice is
// "fire nothing", are jumped: a per-walk, position-indexed memo records
// for every pair stepped where its forced stretch lands (path
// compression), and nodes keep their choices' landings, so each
// distinct pair is stepped once however many histories reach it. A
// stretch lands on a node (an op-firing choice, or the last boundary)
// or on done: a set that can reach no op edge, or the cut of a bounded
// window. Exact co-reach guarantees done's unique op-free completion,
// so the branch emits at once without walking the suffix.
//
// The memo is the position-indexed DAG of Florenzano et al. (PODS
// 2018), built lazily; Count is a DP over it. Enumeration costs
// amortized O(|d| + output) for a fixed automaton, not a per-mapping
// delay independent of |d|. Choices keep boundaryEmissionsProg's
// canonical order, so outputs come in document order.

// firedAt records the operations a walk fired at one boundary.
type firedAt struct {
	mask program.OpMask
	pos  int
}

// Landings: dead, done, or a node (index ≥ 1 into seqWalk.lands);
// landUnknown marks a node's unresolved choice.
const (
	landUnknown int32 = -2
	landDead    int32 = -1
	landDone    int32 = 0
)

// walkEnt is one memoized pair: the set at arena[off:off+words] on the
// chain of its boundary, and where the stretch through it lands.
type walkEnt struct {
	off        int
	next, land int32 // next: older entry at the boundary, -1 at the end
}

// walkLand is a node: its boundary, choices, their landings, and its
// Count DP value (-1 until counted).
type walkLand struct {
	pos   int
	emis  []progEmission
	kids  []int32
	count int
}

// seqWalk is one walk over boundaries lo..end: end is n+1, or with cut
// a window boundary past which completions fire nothing. Walks are
// pooled with their buffers, so in steady state they allocate nothing
// per boundary or per step.
type seqWalk struct {
	e       *Engine
	d       *span.Document
	lo, end int
	cut     bool
	co      []program.Bits // co[pos-lo]: exact co-reach at pos
	reach   program.Bits   // states that can reach an op edge
	words   int

	arena []uint64
	heads []int32 // heads[pos-lo]: newest entry at pos, -1 none
	ents  []walkEnt
	lands []walkLand
	path  []int32
	fired []firedAt
	key   []byte // memo key scratch

	steps, nodes int // letter steps taken and nodes visited
}

var walkPool = sync.Pool{New: func() any { return new(seqWalk) }}

// maxPooledWords bounds the arena a finished walk returns to the pool,
// so one huge document does not pin its buffers.
const maxPooledWords = 1 << 20

func (e *Engine) newSeqWalk(d *span.Document, lo, end int, cut bool, co []program.Bits) *seqWalk {
	w := walkPool.Get().(*seqWalk)
	*w = seqWalk{
		e: e, d: d, lo: lo, end: end, cut: cut, co: co,
		reach: e.opReach(),
		words: (e.prog.NumStates + 63) / 64,
		arena: w.arena[:0],
		heads: slices.Grow(w.heads[:0], end-lo+1)[:end-lo+1],
		ents:  w.ents[:0],
		lands: append(w.lands[:0], walkLand{}),
		path:  w.path[:0],
		fired: w.fired[:0],
		key:   w.key[:0],
	}
	for i := range w.heads {
		w.heads[i] = -1
	}
	return w
}

// done returns the walk to the pool; it must not be used afterwards.
func (w *seqWalk) done() {
	if cap(w.arena) <= maxPooledWords {
		walkPool.Put(w)
	}
}

// set returns the memoized set at off; sets are immutable once stored.
func (w *seqWalk) set(off int) program.Bits { return w.arena[off : off+w.words : off+w.words] }

// push appends a zeroed set to the arena.
func (w *seqWalk) push() (off int, set program.Bits) {
	off = len(w.arena)
	w.arena = slices.Grow(w.arena, w.words)[:off+w.words]
	clear(w.arena[off:])
	return off, w.set(off)
}

// advance steps set across the letter at pos into a new arena set
// pruned by the co-reach at pos+1; ok is false when the branch dies.
func (w *seqWalk) advance(set program.Bits, pos int) (off int, ok bool) {
	p := w.e.prog
	off, next := w.push()
	if c := p.ClassOf(w.d.RuneAt(pos)); c >= 0 && p.LetterStep(set, c, next) {
		if next.And(w.co[pos+1-w.lo]); next.Any() {
			w.steps++
			return off, true
		}
	}
	w.arena = w.arena[:off]
	return 0, false
}

// resolve returns where the stretch entered at pos with the set at off
// (the arena's newest set) lands, walking forced boundaries one letter
// at a time and recording the landing on every pair it passes.
func (w *seqWalk) resolve(pos, off int) int32 {
	w.path = w.path[:0]
	land := landDead
	for {
		set := w.set(off)
		hit := w.heads[pos-w.lo]
		for hit >= 0 && !slices.Equal(w.set(w.ents[hit].off), set) {
			hit = w.ents[hit].next
		}
		if hit >= 0 {
			w.arena = w.arena[:off]
			land = w.ents[hit].land
			break
		}
		w.path = append(w.path, int32(len(w.ents)))
		w.ents = append(w.ents, walkEnt{off: off, next: w.heads[pos-w.lo]})
		w.heads[pos-w.lo] = int32(len(w.ents) - 1)
		if l, forced := w.classify(set, pos); !forced {
			land = l
			break
		}
		var ok bool
		if off, ok = w.advance(set, pos); !ok {
			break
		}
		pos++
	}
	for _, i := range w.path {
		w.ents[i].land = land
	}
	return land
}

// classify decides whether the pair (set, pos) is forced, and when it
// is not, where a stretch reaching it lands.
func (w *seqWalk) classify(set program.Bits, pos int) (land int32, forced bool) {
	if (w.cut && pos == w.end) || !set.Intersects(w.reach) {
		return landDone, false
	}
	co := w.co[pos-w.lo]
	if pos < w.end && !w.canFire(set, co) {
		return 0, true
	}
	emis := w.e.emissions(set, co, &w.key)
	if len(emis) == 0 {
		return landDead, false
	}
	kids := slices.Repeat([]int32{landUnknown}, len(emis))
	w.lands = append(w.lands, walkLand{pos, emis, kids, -1})
	return int32(len(w.lands) - 1), false
}

// canFire reports whether some op edge leaves set into co — exactly
// when the boundary has an op-firing choice, since a choice's first
// operation is such an edge and every later one stays inside co.
func (w *seqWalk) canFire(set, co program.Bits) bool {
	p := w.e.prog
	for i, word := range set {
		for word &= p.HasOps[i]; word != 0; word &= word - 1 {
			for _, ed := range p.OpsFrom(i<<6 + bits.TrailingZeros64(word)) {
				if co.Has(int(ed.To)) {
					return true
				}
			}
		}
	}
	return false
}

// root stores start (nil: the start state) pruned by the co-reach at
// lo and resolves it.
func (w *seqWalk) root(start program.Bits) int32 {
	off, set := w.push()
	if copy(set, start); start == nil {
		set.Set(w.e.prog.Start)
	}
	if set.And(w.co[0]); !set.Any() {
		return landDead
	}
	return w.resolve(w.lo, off)
}

// child returns the landing of choice i of node l: the choice's states
// stepped across the node's letter, resolved on first use only, so a
// node reached by many histories is stepped once.
func (w *seqWalk) child(l int32, i int) int32 {
	if k := w.lands[l].kids[i]; k != landUnknown {
		return k
	}
	pos, states, k := w.lands[l].pos, w.lands[l].emis[i].states, landDead
	if pos == w.end {
		if states.Intersects(w.e.prog.Final) {
			k = landDone
		}
	} else if off, ok := w.advance(states, pos); ok {
		k = w.resolve(pos+1, off)
	}
	w.lands[l].kids[i] = k
	return k
}

// visit emits every completion of the history in w.fired through the
// landing l, in the enumerator's order; false means yield stopped it.
func (w *seqWalk) visit(l int32, yield func(span.Mapping) bool) bool {
	if l == landDead || l == landDone {
		return l == landDead || w.emit(yield)
	}
	w.nodes++
	pos := w.lands[l].pos
	for i, ch := range w.lands[l].emis {
		next := w.child(l, i)
		if next == landDead {
			continue
		}
		w.fired = append(w.fired, firedAt{ch.mask, pos})
		ok := w.visit(next, yield)
		w.fired = w.fired[:len(w.fired)-1]
		if !ok {
			return false
		}
	}
	return true
}

// emit yields the mapping of the operations fired so far.
func (w *seqWalk) emit(yield func(span.Mapping) bool) bool {
	m := make(span.Mapping)
	var opens [program.MaxVars]int
	for _, f := range w.fired {
		for x := f.mask.Open; x != 0; x &= x - 1 {
			opens[bits.TrailingZeros64(x)] = f.pos
		}
		for x := f.mask.Close; x != 0; x &= x - 1 {
			v := bits.TrailingZeros64(x)
			m[w.e.prog.Vars[v]] = span.Span{Start: opens[v], End: f.pos}
		}
	}
	return yield(m)
}

// count is the DP over the memo DAG: the number of completions through
// the landing l.
func (w *seqWalk) count(l int32) int {
	if l == landDead || l == landDone {
		return int(l - landDead) // dead 0, done 1
	}
	if c := w.lands[l].count; c >= 0 {
		return c
	}
	w.nodes++
	total := 0
	for i := range w.lands[l].emis {
		total += w.count(w.child(l, i))
	}
	w.lands[l].count = total
	return total
}

// opReach returns the states from which some path, letters and
// operations alike, reaches an op edge, computed once per engine.
func (e *Engine) opReach() program.Bits {
	e.opReachOnce.Do(func() {
		p := e.prog
		r := p.HasOps.Clone()
		p.ROpClosure(r)
		for front := r.Clone(); front.Any(); {
			prev := program.NewBits(p.NumStates)
			for c := 0; c < p.NumClasses; c++ {
				p.LetterStepBack(front, c, prev)
			}
			p.ROpClosure(prev)
			for i := range prev {
				prev[i] &^= r[i]
				r[i] |= prev[i]
			}
			front = prev
		}
		e.opReachBits = r
	})
	return e.opReachBits
}
