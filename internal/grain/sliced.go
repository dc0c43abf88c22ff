package grain

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitslice"
)

// window is the number of clocks run between buffer rebases. Instead of
// shifting 160 planes every clock (the naive cost the paper's §4.3
// eliminates), the bitsliced engine appends each new state plane after the
// live window and slides the window origin; one bulk copy per 64 clocks
// rebases the buffers.
const window = 64

// SlicedVec is the bitsliced Grain v1 engine over the plane type V
// (bitslice.V64, one machine word): one V-plane per register bit, 64
// independent cipher instances per plane, all register shifts replaced
// by index renaming.
type SlicedVec[V bitslice.Vec] struct {
	s, b  []V // plane buffers of length regBits+window
	pos   int // window origin: state bit i of the current clock is s[pos+i]
	lanes int

	// vals is Reseed's packing scratch: one word per lane, so reloading
	// key/IV material packs 64 bits per lane at a time (a word transpose)
	// instead of setting 144 bits per lane one by one — and allocates
	// nothing on the per-pass rekey path.
	vals []uint64
}

// Sliced is the native 64-lane engine (the uint64 datapath).
type Sliced = SlicedVec[bitslice.V64]

// NewSliced builds a 64-lane (or fewer) engine; keys[L]/ivs[L] belong to
// lane L. Initialization runs the spec's 160 feedback clocks for all lanes
// in lock-step.
func NewSliced(keys, ivs [][]byte) (*Sliced, error) {
	return NewSlicedVec[bitslice.V64](keys, ivs)
}

// NewSlicedVec builds an engine of up to bitslice.VecLanes[V]() lanes.
func NewSlicedVec[V bitslice.Vec](keys, ivs [][]byte) (*SlicedVec[V], error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.VecLanes[V]() {
		return nil, fmt.Errorf("grain: lane count %d out of range [1,%d]", lanes, bitslice.VecLanes[V]())
	}
	g := &SlicedVec[V]{
		s:     make([]V, regBits+window),
		b:     make([]V, regBits+window),
		lanes: lanes,
		vals:  make([]uint64, lanes),
	}
	if err := g.Reseed(keys, ivs); err != nil {
		return nil, err
	}
	return g, nil
}

// Reseed reloads fresh per-lane key/IV material and re-runs the spec's
// initialization clocks, reusing the engine's buffers. The lane count
// must match the one the engine was built with.
func (g *SlicedVec[V]) Reseed(keys, ivs [][]byte) error {
	if len(keys) != g.lanes {
		return fmt.Errorf("grain: %d keys for %d lanes", len(keys), g.lanes)
	}
	if len(ivs) != g.lanes {
		return fmt.Errorf("grain: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < g.lanes; l++ {
		if len(keys[l]) != KeySize {
			return fmt.Errorf("grain: lane %d key must be %d bytes", l, KeySize)
		}
		if len(ivs[l]) != IVSize {
			return fmt.Errorf("grain: lane %d iv must be %d bytes", l, IVSize)
		}
	}
	g.pos = 0
	// Load the registers 64 bits per lane at a time: pack the (MSB-first
	// within bytes) material into one word per lane and word-transpose it
	// into planes. Every plane in [0, regBits) is overwritten and the
	// window tail is fully rewritten before it is ever read, so no
	// zeroing pass is needed.
	g.packPlanes(g.b[:64], keys, 0, 8)        // NFSR bits 0..63
	g.packPlanes(g.b[64:regBits], keys, 8, 2) // NFSR bits 64..79
	g.packPlanes(g.s[:64], ivs, 0, 8)         // LFSR bits 0..63 = IV
	ones := bitslice.BroadcastVec[V](1)
	for i := 64; i < regBits; i++ { // LFSR bits 64..79 = all-ones
		g.s[i] = ones
	}
	// Mask the all-ones planes down to the active lanes so inactive lane
	// bits stay zero, as the bit-by-bit load left them.
	if g.lanes < bitslice.VecLanes[V]() {
		var mask V
		for l := 0; l < g.lanes; l++ {
			mask[l>>6] |= uint64(1) << uint(l&63)
		}
		for i := 64; i < regBits; i++ {
			for k := 0; k < len(mask); k++ {
				g.s[i][k] &= mask[k]
			}
		}
	}
	for i := 0; i < initClocks; i++ {
		z := g.outputVec()
		g.clock(z, z)
	}
	return nil
}

// packPlanes fills dst (up to 64 planes) from byte material: plane i,
// lane L = bit i (MSB-first within bytes) of src[L][off:off+nbytes].
func (g *SlicedVec[V]) packPlanes(dst []V, src [][]byte, off, nbytes int) {
	for l := 0; l < g.lanes; l++ {
		var w uint64
		for j := 0; j < nbytes; j++ {
			w |= uint64(bits.Reverse8(src[l][off+j])) << uint(8*j)
		}
		g.vals[l] = w
	}
	planes := bitslice.PackWordsVec[V](g.vals)
	copy(dst, planes[:])
}

// Lanes returns the number of active lanes.
func (g *SlicedVec[V]) Lanes() int { return g.lanes }

func (g *SlicedVec[V]) outputVec() V {
	// Exact-length reslices let the compiler drop the bounds checks on
	// the constant tap indices below.
	s := g.s[g.pos:][:65]
	b := g.b[g.pos:][:64]
	var z V
	for k := 0; k < len(z); k++ {
		x0, x1, x2, x3, x4 := s[3][k], s[25][k], s[46][k], s[64][k], b[63][k]
		h := x1 ^ x4 ^ x0&x3 ^ x2&x3 ^ x3&x4 ^
			x0&x1&x2 ^ x0&x2&x3 ^ x0&x2&x4 ^ x1&x2&x4 ^ x2&x3&x4
		a := b[1][k] ^ b[2][k] ^ b[4][k] ^ b[10][k] ^ b[31][k] ^ b[43][k] ^ b[56][k]
		z[k] = a ^ h
	}
	return z
}

// clock advances all lanes one step, XORing the feedback planes into the
// new planes (used during initialization; zero planes in keystream mode).
func (g *SlicedVec[V]) clock(fbS, fbB V) {
	s := g.s[g.pos:][:63]
	b := g.b[g.pos:][:64]
	var ns, nb V
	for k := 0; k < len(fbS); k++ {
		ns[k] = s[62][k] ^ s[51][k] ^ s[38][k] ^ s[23][k] ^ s[13][k] ^ s[0][k] ^ fbS[k]
		lin := b[62][k] ^ b[60][k] ^ b[52][k] ^ b[45][k] ^ b[37][k] ^ b[33][k] ^
			b[28][k] ^ b[21][k] ^ b[14][k] ^ b[9][k] ^ b[0][k]
		nl := b[63][k]&b[60][k] ^ b[37][k]&b[33][k] ^ b[15][k]&b[9][k] ^
			b[60][k]&b[52][k]&b[45][k] ^ b[33][k]&b[28][k]&b[21][k] ^
			b[63][k]&b[45][k]&b[28][k]&b[9][k] ^ b[60][k]&b[52][k]&b[37][k]&b[33][k] ^
			b[63][k]&b[60][k]&b[21][k]&b[15][k] ^
			b[63][k]&b[60][k]&b[52][k]&b[45][k]&b[37][k] ^
			b[33][k]&b[28][k]&b[21][k]&b[15][k]&b[9][k] ^
			b[52][k]&b[45][k]&b[37][k]&b[33][k]&b[28][k]&b[21][k]
		nb[k] = s[0][k] ^ lin ^ nl ^ fbB[k]
	}

	g.s[g.pos+regBits] = ns
	g.b[g.pos+regBits] = nb
	g.pos++
	if g.pos == window {
		copy(g.s[:regBits], g.s[window:])
		copy(g.b[:regBits], g.b[window:])
		g.pos = 0
	}
}

// ClockVec emits one keystream plane (lane L = lane L's next bit) and
// advances the generator. Output filter and register feedback are fused
// into one pass over the lanes: in keystream mode the feedback planes
// are zero, so the separate outputVec+clock round trip (two loop bodies,
// two sets of slice headers per clock) collapses into one.
func (g *SlicedVec[V]) ClockVec() V {
	s := g.s[g.pos:][:65]
	b := g.b[g.pos:][:64]
	var z, ns, nb V
	for k := 0; k < len(z); k++ {
		x0, x1, x2, x3, x4 := s[3][k], s[25][k], s[46][k], s[64][k], b[63][k]
		h := x1 ^ x4 ^ x0&x3 ^ x2&x3 ^ x3&x4 ^
			x0&x1&x2 ^ x0&x2&x3 ^ x0&x2&x4 ^ x1&x2&x4 ^ x2&x3&x4
		a := b[1][k] ^ b[2][k] ^ b[4][k] ^ b[10][k] ^ b[31][k] ^ b[43][k] ^ b[56][k]
		z[k] = a ^ h

		ns[k] = s[62][k] ^ s[51][k] ^ s[38][k] ^ s[23][k] ^ s[13][k] ^ s[0][k]
		lin := b[62][k] ^ b[60][k] ^ b[52][k] ^ b[45][k] ^ b[37][k] ^ b[33][k] ^
			b[28][k] ^ b[21][k] ^ b[14][k] ^ b[9][k] ^ b[0][k]
		nl := x4&b[60][k] ^ b[37][k]&b[33][k] ^ b[15][k]&b[9][k] ^
			b[60][k]&b[52][k]&b[45][k] ^ b[33][k]&b[28][k]&b[21][k] ^
			x4&b[45][k]&b[28][k]&b[9][k] ^ b[60][k]&b[52][k]&b[37][k]&b[33][k] ^
			x4&b[60][k]&b[21][k]&b[15][k] ^
			x4&b[60][k]&b[52][k]&b[45][k]&b[37][k] ^
			b[33][k]&b[28][k]&b[21][k]&b[15][k]&b[9][k] ^
			b[52][k]&b[45][k]&b[37][k]&b[33][k]&b[28][k]&b[21][k]
		nb[k] = s[0][k] ^ lin ^ nl
	}
	g.s[g.pos+regBits] = ns
	g.b[g.pos+regBits] = nb
	g.pos++
	if g.pos == window {
		copy(g.s[:regBits], g.s[window:])
		copy(g.b[:regBits], g.b[window:])
		g.pos = 0
	}
	return z
}

// ClockWord emits the keystream word of lanes 0..63 and advances all
// lanes; for the 64-lane engine this is the whole keystream plane.
func (g *SlicedVec[V]) ClockWord() uint64 {
	z := g.ClockVec()
	return z[0]
}

// KeystreamBlockVec runs 64 clocks and transposes so that out[j][k],
// written little-endian, is 8 keystream bytes of lane 64·k+j with
// MSB-first bit packing (byte-compatible with Ref.Keystream).
func (g *SlicedVec[V]) KeystreamBlockVec(out *[64]V) {
	for t := 0; t < 64; t++ {
		out[(t&^7)|(7-t&7)] = g.ClockVec()
	}
	bitslice.TransposeVec(out)
}

// KeystreamBlock is KeystreamBlockVec restricted to lanes 0..63.
func (g *SlicedVec[V]) KeystreamBlock(out *[64]uint64) {
	var blk [64]V
	g.KeystreamBlockVec(&blk)
	for i := range out {
		out[i] = blk[i][0]
	}
}

// Keystream fills one equal-length buffer per lane with that lane's
// keystream bytes; lengths must be equal multiples of 8.
func (g *SlicedVec[V]) Keystream(bufs [][]byte) error {
	if len(bufs) != g.lanes {
		return fmt.Errorf("grain: %d buffers for %d lanes", len(bufs), g.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("grain: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("grain: buffer length must be a multiple of 8")
	}
	var blk [64]V
	for off := 0; off < n; off += 8 {
		g.KeystreamBlockVec(&blk)
		for l := 0; l < g.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l&63][l>>6])
		}
	}
	return nil
}

// KeystreamWords fills dst with raw device-order keystream words of lanes
// 0..63.
func (g *SlicedVec[V]) KeystreamWords(dst []uint64) {
	for i := range dst {
		dst[i] = g.ClockWord()
	}
}
