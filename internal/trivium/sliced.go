package trivium

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// window is the number of clocks between buffer rebases (the same
// append-and-rebase scheme as the bitsliced Grain engine).
const window = 64

// register lengths of the three shift registers.
const (
	lenA = 93
	lenB = 84
	lenC = 111
)

// SlicedVec is the bitsliced Trivium engine over the plane type V
// (bitslice.V64, one machine word): one V-plane per state bit, 64
// independent cipher instances per plane.
// Each plane buffer is an age-ordered append log — plane buf[pos-j] holds
// the register's bit s_j — so the per-clock rotation is a single append
// and the paper's shift elimination applies unchanged.
type SlicedVec[V bitslice.Vec] struct {
	a, b, c []V
	pos     int
	lanes   int
}

// Sliced is the native 64-lane engine (the uint64 datapath).
type Sliced = SlicedVec[bitslice.V64]

// NewSliced builds a 64-lane (or fewer) engine; keys[L]/ivs[L] belong to
// lane L.
func NewSliced(keys, ivs [][]byte) (*Sliced, error) {
	return NewSlicedVec[bitslice.V64](keys, ivs)
}

// NewSlicedVec builds an engine of up to bitslice.VecLanes[V]() lanes.
func NewSlicedVec[V bitslice.Vec](keys, ivs [][]byte) (*SlicedVec[V], error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.VecLanes[V]() {
		return nil, fmt.Errorf("trivium: lane count %d out of range [1,%d]", lanes, bitslice.VecLanes[V]())
	}
	t := &SlicedVec[V]{
		a:     make([]V, lenA+window),
		b:     make([]V, lenB+window),
		c:     make([]V, lenC+window),
		lanes: lanes,
	}
	if err := t.Reseed(keys, ivs); err != nil {
		return nil, err
	}
	return t, nil
}

// Reseed reloads fresh per-lane key/IV material and re-runs the spec's
// initialization clocks, reusing the engine's buffers. The lane count
// must match the one the engine was built with.
func (t *SlicedVec[V]) Reseed(keys, ivs [][]byte) error {
	if len(keys) != t.lanes {
		return fmt.Errorf("trivium: %d keys for %d lanes", len(keys), t.lanes)
	}
	if len(ivs) != t.lanes {
		return fmt.Errorf("trivium: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < t.lanes; l++ {
		if len(keys[l]) != KeySize {
			return fmt.Errorf("trivium: lane %d key must be %d bytes", l, KeySize)
		}
		if len(ivs[l]) != IVSize {
			return fmt.Errorf("trivium: lane %d iv must be %d bytes", l, IVSize)
		}
	}
	var zero V
	for i := range t.a {
		t.a[i] = zero
	}
	for i := range t.b {
		t.b[i] = zero
	}
	for i := range t.c {
		t.c[i] = zero
	}
	for l := 0; l < t.lanes; l++ {
		// buf[len-j] = s_j: key bit i is s_{i+1} of register A, IV bit i
		// is s_{i+1} of register B (i.e. spec bit s_{94+i}).
		for i := 0; i < 80; i++ {
			bitslice.SetLaneBitVec(t.a, lenA-1-i, l, bitOf(keys[l], i))
			bitslice.SetLaneBitVec(t.b, lenB-1-i, l, bitOf(ivs[l], i))
		}
		// s286..s288 = 1 → register C bits s_109, s_110, s_111.
		bitslice.SetLaneBitVec(t.c, lenC-109, l, 1)
		bitslice.SetLaneBitVec(t.c, lenC-110, l, 1)
		bitslice.SetLaneBitVec(t.c, lenC-111, l, 1)
	}
	t.pos = 0
	for i := 0; i < initClocks; i++ {
		t.ClockVec()
	}
	return nil
}

// Lanes returns the number of active lanes.
func (t *SlicedVec[V]) Lanes() int { return t.lanes }

// ClockVec advances all lanes one step and returns the keystream plane
// (lane L = lane L's output bit).
func (t *SlicedVec[V]) ClockVec() V {
	// s_j of register A lives at a[pos+lenA-j]; likewise for B and C.
	p := t.pos
	a, b, c := t.a, t.b, t.c
	var z, n1, n2, n3 V
	if len(z) == 1 {
		// Single-word width: index the planes directly — everything
		// folds into two-operand ALU ops and the scheduler keeps all
		// taps in flight. (len(z) is a per-instantiation constant, so
		// the other arm compiles away.)
		for k := 0; k < len(z); k++ {
			t1 := a[p+lenA-66][k] ^ a[p+lenA-93][k]
			t2 := b[p+lenB-69][k] ^ b[p+lenB-84][k]  // spec s162=s_{B69}, s177=s_{B84}
			t3 := c[p+lenC-66][k] ^ c[p+lenC-111][k] // spec s243=s_{C66}, s288=s_{C111}
			z[k] = t1 ^ t2 ^ t3
			n1[k] = t1 ^ a[p+lenA-91][k]&a[p+lenA-92][k] ^ b[p+lenB-78][k] // s171 = s_{B78}
			n2[k] = t2 ^ b[p+lenB-82][k]&b[p+lenB-83][k] ^ c[p+lenC-87][k] // s264 = s_{C87}
			n3[k] = t3 ^ c[p+lenC-109][k]&c[p+lenC-110][k] ^ a[p+lenA-69][k]
		}
	} else {
		// Wide widths: hoist the fourteen tap planes out of the word
		// loop — each is loop-invariant, and re-indexing the slices
		// costs a bounds check per tap per word.
		ax1, ax2 := a[p+lenA-66], a[p+lenA-93]
		bx1, bx2 := b[p+lenB-69], b[p+lenB-84]
		cx1, cx2 := c[p+lenC-66], c[p+lenC-111]
		an1, an2, nb := a[p+lenA-91], a[p+lenA-92], b[p+lenB-78]
		bn1, bn2, nc := b[p+lenB-82], b[p+lenB-83], c[p+lenC-87]
		cn1, cn2, na := c[p+lenC-109], c[p+lenC-110], a[p+lenA-69]
		for k := 0; k < len(z); k++ {
			t1 := ax1[k] ^ ax2[k]
			t2 := bx1[k] ^ bx2[k]
			t3 := cx1[k] ^ cx2[k]
			z[k] = t1 ^ t2 ^ t3
			n1[k] = t1 ^ an1[k]&an2[k] ^ nb[k]
			n2[k] = t2 ^ bn1[k]&bn2[k] ^ nc[k]
			n3[k] = t3 ^ cn1[k]&cn2[k] ^ na[k]
		}
	}
	a[p+lenA] = n3
	b[p+lenB] = n1
	c[p+lenC] = n2
	t.pos++
	if t.pos == window {
		copy(a[:lenA], a[window:])
		copy(b[:lenB], b[window:])
		copy(c[:lenC], c[window:])
		t.pos = 0
	}
	return z
}

// ClockWord advances all lanes one step and returns the keystream word of
// lanes 0..63; for the 64-lane engine this is the whole keystream plane.
func (t *SlicedVec[V]) ClockWord() uint64 {
	z := t.ClockVec()
	return z[0]
}

// KeystreamBlockVec runs 64 clocks and transposes so that out[j][k],
// written little-endian, is 8 keystream bytes of lane 64·k+j, MSB-first
// per byte (byte-compatible with Ref.Keystream).
func (t *SlicedVec[V]) KeystreamBlockVec(out *[64]V) {
	for i := 0; i < 64; i++ {
		out[(i&^7)|(7-i&7)] = t.ClockVec()
	}
	bitslice.TransposeVec(out)
}

// KeystreamBlock is KeystreamBlockVec restricted to lanes 0..63.
func (t *SlicedVec[V]) KeystreamBlock(out *[64]uint64) {
	var blk [64]V
	t.KeystreamBlockVec(&blk)
	for i := range out {
		out[i] = blk[i][0]
	}
}

// Keystream fills one equal-length buffer per lane; lengths must be equal
// multiples of 8.
func (t *SlicedVec[V]) Keystream(bufs [][]byte) error {
	if len(bufs) != t.lanes {
		return fmt.Errorf("trivium: %d buffers for %d lanes", len(bufs), t.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("trivium: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("trivium: buffer length must be a multiple of 8")
	}
	var blk [64]V
	for off := 0; off < n; off += 8 {
		t.KeystreamBlockVec(&blk)
		for l := 0; l < t.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l&63][l>>6])
		}
	}
	return nil
}

// KeystreamWords fills dst with raw device-order keystream words of lanes
// 0..63.
func (t *SlicedVec[V]) KeystreamWords(dst []uint64) {
	for i := range dst {
		dst[i] = t.ClockWord()
	}
}
