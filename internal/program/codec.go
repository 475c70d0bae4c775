package program

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"unicode/utf8"

	"spanners/internal/span"
)

// This file is the serialization of a compiled program: the artifact
// a persistent spanner registry stores and a restarted service loads
// back without re-running the parse → decompose → VA-compile
// pipeline. The format is deterministic — encoding the same program
// twice yields identical bytes, and compiling the same source yields
// the same program — so registry versions can be content-addressed
// and re-registering an identical expression is idempotent.
//
// Layout (all integers little-endian, fixed width):
//
//	magic   [4]byte  "SPRG"
//	version uint16   codecVersion
//	_       uint16   reserved, must be zero
//	length  uint64   payload length in bytes
//	payload [length]byte
//	check   uint64   FNV-64a of payload
//
// The payload holds the irreducible fields of the program — dense
// state counts, variable names, rune-class ranges, forward dispatch
// bitsets, forward CSR op edges — in a fixed order; every derived
// table (reverse dispatch, reverse CSR, op masks, HasOps bits,
// statistics) is recomputed on decode. Decode trusts nothing: sizes
// are bounded, offsets are range-checked, invariants (sorted
// variables, disjoint ordered ranges, monotone CSR heads, zeroed
// bitset padding) are verified, and any violation returns a typed
// error instead of a panic or a silently broken program.

// codecVersion is the current artifact format version. Decode rejects
// any other value with ErrVersion.
const codecVersion = 1

// Typed decode errors. Callers (the registry, the service pre-warm
// path) match these with errors.Is to distinguish "stale format" from
// "bit rot" from "not an artifact at all"; all of them mean the
// artifact is unusable and the spanner must be recompiled from source.
var (
	ErrBadMagic  = errors.New("program: not a compiled-program artifact")
	ErrVersion   = errors.New("program: unsupported artifact version")
	ErrTruncated = errors.New("program: truncated artifact")
	ErrChecksum  = errors.New("program: artifact checksum mismatch")
	ErrCorrupt   = errors.New("program: corrupt artifact")
	ErrTooLarge  = errors.New("program: artifact exceeds decode limits")
)

// Decode limits. They bound allocation before any table is built, so
// a hostile length field cannot balloon memory; maxDeltaWords is the
// same budget Compile enforces.
const (
	maxDecodeStates  = 1 << 20
	maxDecodeRanges  = 1 << 20
	maxDecodeOpEdges = 1 << 22
	maxVarNameBytes  = 1 << 12
)

var magic = [4]byte{'S', 'P', 'R', 'G'}

const (
	headerLen  = 4 + 2 + 2 + 8
	trailerLen = 8
)

// Encode serializes the program. The output is deterministic: the
// same program always encodes to the same bytes.
func (p *Program) Encode() []byte {
	words := (p.NumStates + 63) / 64

	payloadLen := 7 * 4 // fixed u32 counters
	for _, v := range p.Vars {
		payloadLen += 4 + len(v)
	}
	payloadLen += words * 8                              // final
	payloadLen += len(p.lo) * (4 + 4 + 2)                // ranges
	payloadLen += p.NumStates * p.NumClasses * words * 8 // delta
	payloadLen += (p.NumStates + 1) * 4                  // op heads
	payloadLen += len(p.OpEdges) * (4 + 1 + 1)           // op edges

	buf := make([]byte, 0, headerLen+payloadLen+trailerLen)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payloadLen))

	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumStates))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Start))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumClasses))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vars)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.lo)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.OpEdges)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.stats.LetterEdges))

	for _, v := range p.Vars {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	for _, w := range p.Final {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for i := range p.lo {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.lo[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.hi[i]))
		buf = binary.LittleEndian.AppendUint16(buf, p.cls[i])
	}
	for _, bs := range p.delta {
		for _, w := range bs {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	for _, h := range p.OpHead {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h))
	}
	for _, e := range p.OpEdges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
		open := byte(0)
		if e.Open {
			open = 1
		}
		buf = append(buf, e.Var, open)
	}

	h := fnv.New64a()
	h.Write(buf[headerLen:])
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// reader is a bounds-checked cursor over the payload. Every read
// failure latches err; callers check it once at the end of a section.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// corrupt builds an ErrCorrupt with a human-readable cause.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decode parses an artifact produced by Encode, validating every
// structural invariant before building the derived tables. It never
// panics on hostile input: any malformed, truncated, oversized or
// bit-flipped artifact yields one of the typed errors above.
func Decode(data []byte) (*Program, error) {
	if len(data) < headerLen+trailerLen {
		if len(data) < 4 || string(data[:4]) != string(magic[:]) {
			return nil, ErrBadMagic
		}
		return nil, ErrTruncated
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != codecVersion {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, v, codecVersion)
	}
	if binary.LittleEndian.Uint16(data[6:]) != 0 {
		return nil, corrupt("nonzero reserved header field")
	}
	payloadLen := binary.LittleEndian.Uint64(data[8:])
	if payloadLen > uint64(len(data)) || int(payloadLen) != len(data)-headerLen-trailerLen {
		return nil, fmt.Errorf("%w: payload length %d does not match %d artifact bytes",
			ErrTruncated, payloadLen, len(data))
	}
	payload := data[headerLen : headerLen+int(payloadLen)]
	h := fnv.New64a()
	h.Write(payload)
	if got := binary.LittleEndian.Uint64(data[len(data)-trailerLen:]); got != h.Sum64() {
		return nil, ErrChecksum
	}

	r := &reader{buf: payload}
	numStates := int(r.u32())
	start := int(r.u32())
	numClasses := int(r.u32())
	numVars := int(r.u32())
	numRanges := int(r.u32())
	numOpEdges := int(r.u32())
	letterEdges := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	switch {
	case numStates < 1 || numStates > maxDecodeStates:
		return nil, fmt.Errorf("%w: %d states", ErrTooLarge, numStates)
	case numClasses < 0 || numClasses > 1<<16:
		return nil, fmt.Errorf("%w: %d rune classes", ErrTooLarge, numClasses)
	case numVars < 0 || numVars > MaxVars:
		return nil, fmt.Errorf("%w: %d variables exceed the %d-variable budget", ErrTooLarge, numVars, MaxVars)
	case numRanges < 0 || numRanges > maxDecodeRanges:
		return nil, fmt.Errorf("%w: %d rune ranges", ErrTooLarge, numRanges)
	case numOpEdges < 0 || numOpEdges > maxDecodeOpEdges:
		return nil, fmt.Errorf("%w: %d op edges", ErrTooLarge, numOpEdges)
	}
	if start >= numStates {
		return nil, corrupt("start state %d out of %d states", start, numStates)
	}
	words := (numStates + 63) / 64
	if total := 2 * numStates * numClasses * words; total > maxDeltaWords {
		return nil, fmt.Errorf("%w: dispatch table of %d words", ErrTooLarge, total)
	}

	p := &Program{
		NumStates:  numStates,
		Start:      start,
		NumClasses: numClasses,
	}

	// Variables: strictly ascending (VarID binary-searches them).
	p.Vars = make([]span.Var, numVars)
	for i := range p.Vars {
		n := int(r.u32())
		if n > maxVarNameBytes {
			return nil, fmt.Errorf("%w: %d-byte variable name", ErrTooLarge, n)
		}
		b := r.bytes(n)
		if r.err != nil {
			return nil, r.err
		}
		if !utf8.Valid(b) {
			return nil, corrupt("variable %d is not valid UTF-8", i)
		}
		p.Vars[i] = span.Var(b)
		if i > 0 && p.Vars[i] <= p.Vars[i-1] {
			return nil, corrupt("variables not strictly sorted at index %d", i)
		}
	}

	// Accepting states.
	p.Final = make(Bits, words)
	for i := range p.Final {
		p.Final[i] = r.u64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := checkPadding(p.Final, numStates); err != nil {
		return nil, err
	}

	// Rune classification ranges: valid runes, lo ≤ hi, strictly
	// increasing and disjoint, class ids in range.
	p.lo = make([]rune, numRanges)
	p.hi = make([]rune, numRanges)
	p.cls = make([]uint16, numRanges)
	for i := 0; i < numRanges; i++ {
		lo := int64(r.u32())
		hi := int64(r.u32())
		cls := r.u16()
		if r.err != nil {
			return nil, r.err
		}
		if lo > hi || hi > utf8.MaxRune {
			return nil, corrupt("rune range %d: [%d, %d]", i, lo, hi)
		}
		if i > 0 && lo <= int64(p.hi[i-1]) {
			return nil, corrupt("rune ranges overlap or are unsorted at index %d", i)
		}
		if int(cls) >= numClasses {
			return nil, corrupt("rune range %d names class %d of %d", i, cls, numClasses)
		}
		p.lo[i], p.hi[i], p.cls[i] = rune(lo), rune(hi), cls
	}

	// Forward letter dispatch; the reverse tables are derived below.
	backing := make([]uint64, 2*numStates*numClasses*words)
	p.delta = make([]Bits, numStates*numClasses)
	p.rdelta = make([]Bits, numStates*numClasses)
	for i := range p.delta {
		p.delta[i] = Bits(backing[i*words : (i+1)*words])
	}
	off := numStates * numClasses * words
	for i := range p.rdelta {
		p.rdelta[i] = Bits(backing[off+i*words : off+(i+1)*words])
	}
	for i := range p.delta {
		for wi := 0; wi < words; wi++ {
			p.delta[i][wi] = r.u64()
		}
		if r.err != nil {
			return nil, r.err
		}
		if err := checkPadding(p.delta[i], numStates); err != nil {
			return nil, err
		}
	}

	// Forward CSR op heads and edges.
	p.OpHead = make([]int32, numStates+1)
	for i := range p.OpHead {
		h := r.u32()
		if h > uint32(numOpEdges) {
			return nil, corrupt("op head %d exceeds %d edges", h, numOpEdges)
		}
		p.OpHead[i] = int32(h)
		if i > 0 && p.OpHead[i] < p.OpHead[i-1] {
			return nil, corrupt("op heads decrease at state %d", i)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if p.OpHead[0] != 0 || int(p.OpHead[numStates]) != numOpEdges {
		return nil, corrupt("op heads cover [%d, %d] of %d edges", p.OpHead[0], p.OpHead[numStates], numOpEdges)
	}
	p.OpEdges = make([]OpEdge, numOpEdges)
	for i := range p.OpEdges {
		to := r.u32()
		rest := r.bytes(2)
		if r.err != nil {
			return nil, r.err
		}
		if int(to) >= numStates {
			return nil, corrupt("op edge %d targets state %d of %d", i, to, numStates)
		}
		v, open := rest[0], rest[1]
		if int(v) >= numVars {
			return nil, corrupt("op edge %d names variable %d of %d", i, v, numVars)
		}
		if open > 1 {
			return nil, corrupt("op edge %d has open flag %d", i, open)
		}
		e := OpEdge{To: int32(to), Var: v, Open: open == 1}
		if e.Open {
			e.Mask = OpenBit(int(v))
		} else {
			e.Mask = CloseBit(int(v))
		}
		p.OpEdges[i] = e
	}

	if r.off != len(payload) {
		return nil, corrupt("%d trailing payload bytes", len(payload)-r.off)
	}
	if letterEdges < 0 {
		return nil, corrupt("negative letter-edge count")
	}

	// Derived tables: reverse dispatch, reverse CSR, op masks, HasOps.
	for q := 0; q < numStates; q++ {
		for c := 0; c < numClasses; c++ {
			p.delta[q*numClasses+c].ForEach(func(to int) {
				p.rdelta[to*numClasses+c].Set(q)
			})
		}
	}
	rcounts := make([]int32, numStates+1)
	for _, e := range p.OpEdges {
		rcounts[e.To+1]++
	}
	for q := 0; q < numStates; q++ {
		rcounts[q+1] += rcounts[q]
	}
	p.ROpHead = rcounts
	p.ROpEdges = make([]OpEdge, numOpEdges)
	rfill := make([]int32, numStates)
	for q := 0; q < numStates; q++ {
		for _, e := range p.OpsFrom(q) {
			re := e
			re.To = int32(q)
			to := e.To
			p.ROpEdges[p.ROpHead[to]+rfill[to]] = re
			rfill[to]++
		}
	}
	p.HasOps = NewBits(numStates)
	p.RHasOps = NewBits(numStates)
	for q := 0; q < numStates; q++ {
		if p.OpHead[q+1] > p.OpHead[q] {
			p.HasOps.Set(q)
		}
		if p.ROpHead[q+1] > p.ROpHead[q] {
			p.RHasOps.Set(q)
		}
	}

	p.stats = Stats{
		States:      numStates,
		Classes:     numClasses,
		Vars:        numVars,
		OpEdges:     numOpEdges,
		LetterEdges: letterEdges,
		DeltaWords:  len(backing),
		// CompileNS measures lowering work, which decoding skips — that
		// is the point of the artifact — so it stays zero.
	}
	p.finishTables()
	return p, nil
}

// checkPadding rejects bitsets with bits set at or beyond n: they
// would name states that do not exist and break byte-identical
// re-encoding.
func checkPadding(b Bits, n int) error {
	for i := n; i < len(b)*64; i++ {
		if b.Has(i) {
			return corrupt("bitset names state %d of %d", i, n)
		}
	}
	return nil
}
