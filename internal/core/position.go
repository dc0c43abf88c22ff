package core

import "fmt"

// Resumable stream positioning: the canonical byte stream of one (seed,
// domain) pair is the concatenation of SegmentBytes-sized segments, and
// segment j's material depends only on (seed, domain, j) — never on how
// much of the stream was produced before it. That makes the stream
// randomly addressable: an engine can be keyed directly for any segment
// index and emit the identical bytes a from-the-start reader would have
// reached, which is what bsrngd's /stream endpoint and segment leases
// lean on to resume a client after a disconnect and to let any party
// re-derive a leased window byte-for-byte.

// maxSegmentIndex bounds addressable segment indices so byte-offset
// arithmetic (index * SegmentBytes) can never wrap a uint64.
const maxSegmentIndex = uint64(1) << 52

// seek repositions the engine at the start of the pass whose first slot
// is absolute segment index base, discarding any partially-emitted
// pass. The epoch is preserved (0 on the canonical stream).
func (e *segmented) seek(base uint64) {
	e.base = base
	if err := e.rekey(base, e.epoch); err != nil {
		panic("core: segment rekey failed: " + err.Error())
	}
	e.emit = 0
	e.filled = false
}

// NewSegmentReader returns a Generator positioned at absolute byte
// offset `offset` of the canonical (seed, domain) stream: the first
// byte it reads is byte `offset` of the stream a zero-offset reader
// would produce. domain 0 is exactly the NewGenerator stream; worker w
// of a Stream serves domain w+1.
//
// The reader is keyed directly for segment offset/SegmentBytes — no
// bytes before the offset are generated — so positioning cost is one
// rekey plus, for a mid-segment offset, one segment of keystream.
//
// The lanes parameter is Deprecated: every engine is 64 lanes wide, so
// only 0 and DefaultLanes are accepted and any other value is an error.
// It remains only so existing callers compile; pass 0. (The marker sits
// mid-paragraph so tools do not deprecate the whole function.)
func NewSegmentReader(alg Algorithm, seed, domain uint64, lanes int, offset uint64) (*Generator, error) {
	if err := checkLanes(lanes); err != nil {
		return nil, err
	}
	seg, skip := offset/SegmentBytes, offset%SegmentBytes
	if seg >= maxSegmentIndex {
		return nil, fmt.Errorf("core: segment index %d out of range (max %d)", seg, maxSegmentIndex)
	}
	eng, err := newEngine(alg, seed, domain)
	if err != nil {
		return nil, err
	}
	if seg != 0 {
		se, ok := eng.(*segmented)
		if !ok {
			return nil, fmt.Errorf("core: engine for %v does not support positioning", alg)
		}
		se.seek(seg)
	}
	g := newGenerator(alg, eng)
	if skip != 0 {
		// Generate the offset's segment into the one-block buffer and
		// leave the cursor mid-segment; aligned reads continue in place
		// from the next segment on.
		eng.nextBlock(g.buf)
		g.pos = int(skip)
	}
	return g, nil
}
