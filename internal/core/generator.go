package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/aes"
	"repro/internal/bitslice"
	"repro/internal/chaotic"
	"repro/internal/grain"
	"repro/internal/mickey"
	"repro/internal/trivium"
	"repro/internal/xorgens"
)

// Algorithm selects the underlying bitsliced CSPRNG.
type Algorithm int

const (
	// MICKEY is the bitsliced MICKEY 2.0 engine — the paper's headline
	// generator.
	MICKEY Algorithm = iota
	// GRAIN is the bitsliced Grain v1 engine.
	GRAIN
	// AESCTR is the bitsliced AES-128 counter-mode engine.
	AESCTR
	// TRIVIUM is the bitsliced Trivium engine — an extension beyond the
	// paper's three ciphers (the remaining eSTREAM hardware-profile
	// winner), and the fastest engine in this repository.
	TRIVIUM
	// XORGENS is the bitsliced xorgens-style F₂-linear engine (Brent's
	// xorgens4096 recurrence) — a fifth family whose state update is pure
	// word-XOR circuitry, following Nandapalan & Brent's line of work.
	XORGENS
)

// chaoticFlag marks an Algorithm as a chaotic-iterations post-processed
// mode of its base engine (Bahi et al.; see internal/chaotic). The flag
// lives well above the base-engine range so base values stay dense for
// iteration and the composed value still round-trips through int.
const chaoticFlag Algorithm = 1 << 8

// Chaotic returns the chaotic-iterations post-processed mode of base.
// Composing an already-chaotic algorithm is idempotent.
func Chaotic(base Algorithm) Algorithm { return base.Base() | chaoticFlag }

// IsChaotic reports whether a is a chaotic post-processed mode.
func (a Algorithm) IsChaotic() bool { return a&chaoticFlag != 0 }

// Base returns the underlying engine of a chaotic mode (a itself for
// plain algorithms).
func (a Algorithm) Base() Algorithm { return a &^ chaoticFlag }

// String returns the algorithm's display name; chaotic modes render as
// "chaotic(<base>)", the spelling ParseAlgorithm accepts back.
func (a Algorithm) String() string {
	if a.IsChaotic() {
		return "chaotic(" + a.Base().String() + ")"
	}
	switch a {
	case MICKEY:
		return "mickey"
	case GRAIN:
		return "grain"
	case AESCTR:
		return "aes-ctr"
	case TRIVIUM:
		return "trivium"
	case XORGENS:
		return "xorgens"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmNames lists the accepted ParseAlgorithm spellings (canonical
// names first), for error messages and usage strings. "chaotic(<name>)"
// wraps any base engine in the chaotic-iterations post-processing mode.
var AlgorithmNames = []string{"mickey", "grain", "aes-ctr", "trivium", "xorgens", "aes", "chaotic(<name>)"}

// ParseAlgorithm maps a name (case-insensitive, surrounding whitespace
// ignored) to an Algorithm. "chaotic(<name>)" selects the
// chaotic-iterations post-processed mode of the named base engine.
func ParseAlgorithm(s string) (Algorithm, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if inner, ok := strings.CutPrefix(name, "chaotic("); ok {
		inner, ok = strings.CutSuffix(inner, ")")
		if !ok {
			return 0, fmt.Errorf("core: malformed algorithm %q (want chaotic(<name>))", s)
		}
		base, err := ParseAlgorithm(inner)
		if err != nil {
			return 0, err
		}
		if base.IsChaotic() {
			return 0, fmt.Errorf("core: algorithm %q nests chaotic modes", s)
		}
		return Chaotic(base), nil
	}
	switch name {
	case "mickey":
		return MICKEY, nil
	case "grain":
		return GRAIN, nil
	case "aes-ctr", "aes":
		return AESCTR, nil
	case "trivium":
		return TRIVIUM, nil
	case "xorgens":
		return XORGENS, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of %s)", s, strings.Join(AlgorithmNames, ", "))
}

// Algorithms lists all base engines.
var Algorithms = []Algorithm{MICKEY, GRAIN, AESCTR, TRIVIUM, XORGENS}

// ServedAlgorithms is the default serving, benchmark and certification
// matrix: every base engine plus one chaotic post-processed mode
// (exercising the composition end-to-end without doubling the grid).
var ServedAlgorithms = []Algorithm{MICKEY, GRAIN, AESCTR, TRIVIUM, XORGENS, Chaotic(GRAIN)}

// SegmentBytes is the unit of the canonical BSRNG byte stream: the stream
// of one (seed, domain) pair is the concatenation of fixed-size segments,
// and segment j is keystream from a cipher instance keyed by
// PRF(seed, domain, j) (see segmentMaterial). The 64-lane engine computes
// 64 consecutive segments in one lock-step pass.
const SegmentBytes = 2048

// DefaultLanes is the engine datapath width: the native 64-lane uint64
// plane. It is the only width.
const DefaultLanes = 64

// checkLanes validates a deprecated Lanes setting: 0 and DefaultLanes
// are accepted, any other width was removed.
func checkLanes(lanes int) error {
	if lanes != 0 && lanes != DefaultLanes {
		return fmt.Errorf("core: lane width %d is not supported (the only width is %d; leave Lanes at 0)", lanes, DefaultLanes)
	}
	return nil
}

// engine is one bitsliced generator producing the canonical segment
// stream of a (seed, domain) pair.
type engine interface {
	// blockBytes is the output of one nextBlock call.
	blockBytes() int
	// nextBlock writes exactly blockBytes() bytes.
	nextBlock(dst []byte)
	// nextBlocks writes len(dst) bytes — a multiple of blockBytes() —
	// letting the engine place whole lock-step passes directly into dst
	// (the zero-copy fast path). check, when non-nil, runs on every
	// block right after it lands in dst; it may call reseed and
	// nextBlock reentrantly to condemn and regenerate that block.
	nextBlocks(dst []byte, check func(seg []byte))
	// reseed condemns the block most recently emitted by nextBlock: the
	// engine rekeys itself with fresh material (a bumped reseed epoch)
	// and the next nextBlock call regenerates that block's slot. Used
	// by the continuous health tests to discard a failed segment.
	reseed()
}

// segmented drives a 64-lane cipher through the segment stream: one
// lock-step pass fills `lanes` segment buffers (lane l = segment base+l),
// nextBlock hands them out in order, and an exhausted pass rekeys the
// cipher for the next `lanes` segment indices via the rekey hook.
//
// The pass destination is chosen per fill: nextBlocks aims as many lane
// buffers as fit directly at the caller's destination (the cipher then
// writes those segments exactly once, into their final resting place)
// and parks only the overhang lanes in the engine's private buffers for
// later copy-out. The private buffers also carry every health-reseed
// regeneration — see reseed.
type segmented struct {
	lanes  int
	priv   [][]byte // lanes × SegmentBytes private buffers, one backing array
	cur    [][]byte // current pass destination per lane: priv[l] or a dst subslice
	emit   int      // next segment slot to hand out
	filled bool     // cur[emit..lanes-1] hold generated segments
	base   uint64   // absolute segment index of the current pass's slot 0
	epoch  uint64   // reseed generation; 0 = canonical stream
	rekey  func(base, epoch uint64) error
	fill   func(bufs [][]byte) error
}

func newSegmented(lanes int, rekey func(base, epoch uint64) error, fill func([][]byte) error) *segmented {
	e := &segmented{lanes: lanes, rekey: rekey, fill: fill}
	backing := make([]byte, lanes*SegmentBytes)
	e.priv = make([][]byte, lanes)
	e.cur = make([][]byte, lanes)
	for l := range e.priv {
		e.priv[l] = backing[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	// The engine arrives keyed for pass 0 (base 0, epoch 0); the pass is
	// generated lazily on the first emit so it can land directly in the
	// first caller's destination.
	return e
}

// fillPass generates the current pass. Lanes whose segment slots land
// inside dst are aimed straight at it — the cipher writes them in place
// — and the rest go to the private buffers. dst must be segment-aligned
// and is nil on the nextBlock (copy-out) path. Only called with emit==0:
// a pass is always generated from its first slot.
func (e *segmented) fillPass(dst []byte) {
	direct := len(dst) / SegmentBytes
	if direct > e.lanes {
		direct = e.lanes
	}
	for l := 0; l < direct; l++ {
		e.cur[l] = dst[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	copy(e.cur[direct:], e.priv[direct:])
	if err := e.fill(e.cur); err != nil {
		panic("core: segment fill failed: " + err.Error())
	}
	e.filled = true
}

// advancePass rekeys the cipher for the next `lanes` segment indices.
func (e *segmented) advancePass() {
	e.base += uint64(e.lanes)
	if err := e.rekey(e.base, e.epoch); err != nil {
		panic("core: segment rekey failed: " + err.Error())
	}
	e.emit = 0
	e.filled = false
}

func (e *segmented) blockBytes() int { return SegmentBytes }

func (e *segmented) nextBlock(dst []byte) {
	if e.emit == e.lanes {
		e.advancePass()
	}
	if !e.filled {
		e.fillPass(nil)
	}
	if src := e.cur[e.emit]; &src[0] != &dst[0] {
		copy(dst, src)
	}
	e.emit++
}

func (e *segmented) nextBlocks(dst []byte, check func(seg []byte)) {
	if len(dst)%SegmentBytes != 0 {
		panic("core: nextBlocks destination not segment-aligned")
	}
	for len(dst) > 0 {
		if e.emit == e.lanes {
			e.advancePass()
		}
		if !e.filled {
			e.fillPass(dst)
		}
		for e.emit < e.lanes && len(dst) > 0 {
			seg := dst[:SegmentBytes]
			// cur[emit] either aliases seg (direct fill) or holds a
			// parked segment in the private buffers; re-read it every
			// iteration because check may reseed mid-pass.
			if src := e.cur[e.emit]; &src[0] != &seg[0] {
				copy(seg, src)
			}
			e.emit++
			dst = dst[SegmentBytes:]
			if check != nil {
				check(seg)
			}
		}
	}
}

// reseed discards the current lock-step pass under a bumped epoch and
// re-aims at the last emitted segment slot, so the condemned segment
// (and every later one from this engine) is regenerated from fresh,
// unrelated key/IV material. The canonical epoch-0 stream is untouched
// for engines whose segments never fail a health check.
//
// The regeneration always lands in the private buffers, never in a
// caller's destination: earlier slots of a directly-filled pass have
// already been delivered (possibly into the same destination buffer)
// and must keep their bytes, so the refreshed pass is parked privately
// and copied out slot by slot from the condemned one on.
func (e *segmented) reseed() {
	e.epoch++
	if e.emit > 0 {
		e.emit--
	}
	copy(e.cur, e.priv)
	if err := e.rekey(e.base, e.epoch); err != nil {
		panic("core: segment rekey failed: " + err.Error())
	}
	if err := e.fill(e.cur); err != nil {
		panic("core: segment fill failed: " + err.Error())
	}
	e.filled = true
}

// newEngine builds a fully-seeded 64-lane engine for one (seed, domain)
// pair.
func newEngine(alg Algorithm, seed, domain uint64) (engine, error) {
	return newEngineWidth[bitslice.V64](alg, seed, domain, DefaultLanes)
}

func newEngineWidth[V bitslice.Vec](alg Algorithm, seed, domain uint64, lanes int) (engine, error) {
	rekey, fill, err := newCipherWidth[V](alg.Base(), seed, domain, lanes)
	if err != nil {
		return nil, err
	}
	if alg.IsChaotic() {
		rekey, fill = chaoticWrap(seed, domain, lanes, rekey, fill)
	}
	return newSegmented(lanes, rekey, fill), nil
}

// chaoticWrap layers the chaotic-iterations post-processing mode over a
// cipher's rekey/fill pair: after every lock-step fill, each lane's
// segment is passed through chaotic.Post with a per-(segment, epoch)
// initial word x_0 drawn from the seed schedule under its own domain
// tweak (so the orbit start is decorrelated from the inner key
// material). x_0 depends on the absolute segment index base+l, never on
// the lane count, preserving the canonical-stream property.
func chaoticWrap(seed, domain uint64, lanes int, rekey func(base, epoch uint64) error, fill func([][]byte) error) (func(base, epoch uint64) error, func([][]byte) error) {
	x0s := make([]uint64, lanes)
	deriveChaoticX0s(x0s, seed, domain, 0, 0)
	wrappedRekey := func(base, epoch uint64) error {
		deriveChaoticX0s(x0s, seed, domain, base, epoch)
		return rekey(base, epoch)
	}
	wrappedFill := func(bufs [][]byte) error {
		if err := fill(bufs); err != nil {
			return err
		}
		for l, b := range bufs {
			chaotic.Post(b, x0s[l])
		}
		return nil
	}
	return wrappedRekey, wrappedFill
}

// newCipherWidth builds the keyed cipher for one base engine and returns
// its segment-pass (rekey, fill) hooks.
func newCipherWidth[V bitslice.Vec](alg Algorithm, seed, domain uint64, lanes int) (func(base, epoch uint64) error, func([][]byte) error, error) {
	// Each engine owns one laneMaterial scratch: every rekey at a segment
	// pass boundary rederives key/IV material in place, so the steady
	// state allocates nothing. The cipher Reseed implementations copy the
	// material into their own state and never retain the slices.
	switch alg {
	case MICKEY:
		mat := newLaneMaterial(lanes, mickey.KeySize, 10)
		mat.derive(seed, domain, 0, 0)
		m, err := mickey.NewSlicedVec[V](mat.keys, mat.ivs, mickey.MaxIVBits)
		if err != nil {
			return nil, nil, err
		}
		return func(base, epoch uint64) error {
			mat.derive(seed, domain, base, epoch)
			return m.Reseed(mat.keys, mat.ivs, mickey.MaxIVBits)
		}, m.Keystream, nil
	case GRAIN:
		mat := newLaneMaterial(lanes, grain.KeySize, grain.IVSize)
		mat.derive(seed, domain, 0, 0)
		g, err := grain.NewSlicedVec[V](mat.keys, mat.ivs)
		if err != nil {
			return nil, nil, err
		}
		return func(base, epoch uint64) error {
			mat.derive(seed, domain, base, epoch)
			return g.Reseed(mat.keys, mat.ivs)
		}, g.Keystream, nil
	case AESCTR:
		mat := newLaneMaterial(lanes, 16, 8)
		mat.derive(seed, domain, 0, 0)
		g, err := aes.NewSlicedCTRVec[V](mat.keys, mat.ivs)
		if err != nil {
			return nil, nil, err
		}
		return func(base, epoch uint64) error {
			mat.derive(seed, domain, base, epoch)
			return g.Reseed(mat.keys, mat.ivs)
		}, g.Keystream, nil
	case TRIVIUM:
		mat := newLaneMaterial(lanes, trivium.KeySize, trivium.IVSize)
		mat.derive(seed, domain, 0, 0)
		t, err := trivium.NewSlicedVec[V](mat.keys, mat.ivs)
		if err != nil {
			return nil, nil, err
		}
		return func(base, epoch uint64) error {
			mat.derive(seed, domain, base, epoch)
			return t.Reseed(mat.keys, mat.ivs)
		}, t.Keystream, nil
	case XORGENS:
		mat := newLaneMaterial(lanes, xorgens.KeySize, xorgens.IVSize)
		mat.derive(seed, domain, 0, 0)
		x, err := xorgens.NewSlicedVec[V](mat.keys, mat.ivs)
		if err != nil {
			return nil, nil, err
		}
		return func(base, epoch uint64) error {
			mat.derive(seed, domain, base, epoch)
			return x.Reseed(mat.keys, mat.ivs)
		}, x.Keystream, nil
	}
	return nil, nil, fmt.Errorf("core: unknown algorithm %v", alg)
}

// Generator is a deterministic single-engine BSRNG byte stream: one
// 64-lane bitsliced engine behind an io.Reader. The byte stream depends
// only on (algorithm, seed).
type Generator struct {
	alg Algorithm
	eng engine
	buf []byte
	pos int // unread offset into buf; len(buf) when empty
}

// NewGenerator builds a seeded generator.
func NewGenerator(alg Algorithm, seed uint64) (*Generator, error) {
	eng, err := newEngine(alg, seed, 0)
	if err != nil {
		return nil, err
	}
	return newGenerator(alg, eng), nil
}

// newGenerator wraps eng with an empty one-block buffer.
func newGenerator(alg Algorithm, eng engine) *Generator {
	g := &Generator{alg: alg, eng: eng}
	g.buf = make([]byte, eng.blockBytes())
	g.pos = len(g.buf)
	return g
}

// Algorithm reports which engine backs the generator.
func (g *Generator) Algorithm() Algorithm { return g.alg }

// Read fills p with pseudo-random bytes; it never fails. Whole segments
// are generated directly into p — only a sub-segment head or tail passes
// through the generator's one-block buffer.
func (g *Generator) Read(p []byte) (int, error) {
	n := len(p)
	if g.pos < len(g.buf) {
		k := copy(p, g.buf[g.pos:])
		g.pos += k
		p = p[k:]
	}
	if aligned := len(p) - len(p)%len(g.buf); aligned > 0 {
		g.eng.nextBlocks(p[:aligned], nil)
		p = p[aligned:]
	}
	if len(p) > 0 {
		g.eng.nextBlock(g.buf)
		g.pos = copy(p, g.buf)
	}
	return n, nil
}

// Uint64 returns the next 8 output bytes as a little-endian word.
func (g *Generator) Uint64() uint64 {
	var b [8]byte
	g.Read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Words fills dst with raw output words — the cheapest bulk path.
func (g *Generator) Words(dst []uint64) {
	var b [8]byte
	for i := range dst {
		g.Read(b[:])
		dst[i] = binary.LittleEndian.Uint64(b[:])
	}
}
