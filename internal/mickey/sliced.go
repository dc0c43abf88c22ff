package mickey

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// SlicedVec is the bitsliced MICKEY 2.0 engine of paper §4.4 (Fig. 9),
// over the plane type V (bitslice.V64, one machine word): the two 100-bit
// registers become 200 V-planes (plane i, lane L = state bit i of lane
// L), so one ClockVec advances 64 independent cipher instances and emits
// as many keystream bits.
//
// Everything data-dependent in the spec becomes branch-free here:
//
//   - the per-lane control bits (irregular clocking) turn into full-width
//     AND masks,
//   - the COMP0/COMP1/FB0/FB1 constants broadcast to all-zero/all-one
//     planes at construction time,
//   - the register shift is realized by ping-pong buffer swapping — the
//     paper's "register reference swapping" — rather than bit shifts.
type SlicedVec[V bitslice.Vec] struct {
	// Fixed-size register arrays (not slices): every clockKG index is
	// provably in range, so the hot loop runs without bounds checks.
	r, s   *[regBits]V // current planes
	nr, ns *[regBits]V // scratch planes (swapped in after every clock)
	lanes  int

	// broadcast constants, one plane per state bit; the per-index selector
	// planes turn every data-dependent choice in the spec into straight-line
	// AND/XOR so the clock loop is branch-free.
	c0, c1 [regBits]V
	tapB   [regBits]V // all-ones where i ∈ RTAPS
	// S feedback selectors, folded to two planes per index so the clock
	// loop computes the feedback term as fbS & (selX ^ selD & ctrlS):
	// selX is the (FB0,FB1)-selector mask when the control bit is 0 and
	// selX^selD the mask when it is 1.
	selX [regBits]V // FB0=1 (applies at ctrlS=0), plus FB1=FB0=1 (always)
	selD [regBits]V // flips the mask where exactly one of FB0/FB1 is set
}

// Sliced is the native 64-lane engine (the uint64 datapath).
type Sliced = SlicedVec[bitslice.V64]

// NewSliced builds a 64-lane (or fewer) engine. keys[L] is lane L's
// 10-byte key; ivs[L] its IV (ivBits bits, MSB-first). All lanes are
// initialized in lock-step, exactly mirroring the reference schedule.
func NewSliced(keys [][]byte, ivs [][]byte, ivBits int) (*Sliced, error) {
	return NewSlicedVec[bitslice.V64](keys, ivs, ivBits)
}

// NewSlicedVec builds an engine of up to bitslice.VecLanes[V]() lanes.
func NewSlicedVec[V bitslice.Vec](keys [][]byte, ivs [][]byte, ivBits int) (*SlicedVec[V], error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.VecLanes[V]() {
		return nil, fmt.Errorf("mickey: lane count %d out of range [1,%d]", lanes, bitslice.VecLanes[V]())
	}
	m := &SlicedVec[V]{
		r: new([regBits]V), s: new([regBits]V),
		nr: new([regBits]V), ns: new([regBits]V),
		lanes: lanes,
	}
	for i := 0; i < regBits; i++ {
		m.c0[i] = bitslice.BroadcastVec[V](maskBit(&comp0, i))
		m.c1[i] = bitslice.BroadcastVec[V](maskBit(&comp1, i))
		f0, f1 := maskBit(&sMask0, i), maskBit(&sMask1, i)
		// Masks at ctrlS=0 (FB0 or both set) and ctrlS=1 (FB1 or both);
		// selD is their XOR, so mask(ctrlS) = selX ^ selD&ctrlS.
		m.selX[i] = bitslice.BroadcastVec[V](f0)
		m.selD[i] = bitslice.BroadcastVec[V](f0 ^ f1)
	}
	allOnes := bitslice.BroadcastVec[V](1)
	for _, t := range rtaps {
		m.tapB[t] = allOnes
	}
	if err := m.Reseed(keys, ivs, ivBits); err != nil {
		return nil, err
	}
	return m, nil
}

// Reseed re-runs the load schedule with fresh per-lane key/IV material,
// reusing the engine's buffers. The lane count must match the one the
// engine was built with.
func (m *SlicedVec[V]) Reseed(keys [][]byte, ivs [][]byte, ivBits int) error {
	if len(keys) != m.lanes {
		return fmt.Errorf("mickey: %d keys for %d lanes", len(keys), m.lanes)
	}
	if len(ivs) != m.lanes {
		return fmt.Errorf("mickey: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < m.lanes; l++ {
		if err := checkKeyIV(keys[l], ivs[l], ivBits); err != nil {
			return fmt.Errorf("lane %d: %w", l, err)
		}
	}
	var zero V
	for i := 0; i < regBits; i++ {
		m.r[i] = zero
		m.s[i] = zero
	}

	// Load IV, key, preclock — the same schedule as the reference, with
	// the input bit gathered across lanes into one plane per step.
	gather := func(src [][]byte, i int) V {
		var w V
		for l := 0; l < m.lanes; l++ {
			w[l>>6] |= uint64(ivBit(src[l], i)) << uint(l&63)
		}
		return w
	}
	var zeroIn V
	for i := 0; i < ivBits; i++ {
		m.clockKG(true, gather(ivs, i))
	}
	for i := 0; i < 8*KeySize; i++ {
		m.clockKG(true, gather(keys, i))
	}
	for i := 0; i < regBits; i++ {
		m.clockKG(true, zeroIn)
	}
	return nil
}

// clockKG advances all lanes one generator step. input carries one input
// bit per lane.
func (m *SlicedVec[V]) clockKG(mixing bool, input V) {
	r, s, nr, ns := m.r, m.s, m.nr, m.ns

	var ctrlR, ctrlS, fbR, fbS V
	for k := 0; k < len(input); k++ {
		ctrlR[k] = s[34][k] ^ r[67][k]
		ctrlS[k] = s[67][k] ^ r[33][k]
		inR := input[k]
		if mixing {
			inR ^= s[50][k]
		}
		// CLOCK_R feedback: fbR = r[99] ^ inputR; CLOCK_S: fbS = s[99] ^ input.
		fbR[k] = r[99][k] ^ inR
		fbS[k] = s[99][k] ^ input[k]
	}

	// CLOCK_R: nr[i] = r[i-1] ^ (i∈RTAPS ? fbR : 0) ^ (r[i] & ctrlR)
	// S feedback term at index i: fbS & (selX[i] ^ selD[i] & ctrlS).
	for k := 0; k < len(input); k++ {
		nr[0][k] = (fbR[k] & m.tapB[0][k]) ^ (r[0][k] & ctrlR[k])
		ns[0][k] = fbS[k] & (m.selX[0][k] ^ m.selD[0][k]&ctrlS[k])
		ns[99][k] = s[98][k] ^ fbS[k]&(m.selX[99][k]^m.selD[99][k]&ctrlS[k])
	}
	for i := 1; i < regBits; i++ {
		for k := 0; k < len(input); k++ {
			nr[i][k] = r[i-1][k] ^ (r[i][k] & ctrlR[k]) ^ (fbR[k] & m.tapB[i][k])
		}
	}

	// CLOCK_S
	for i := 1; i < 99; i++ {
		for k := 0; k < len(input); k++ {
			ns[i][k] = s[i-1][k] ^ ((s[i][k] ^ m.c0[i][k]) & (s[i+1][k] ^ m.c1[i][k])) ^
				fbS[k]&(m.selX[i][k]^m.selD[i][k]&ctrlS[k])
		}
	}

	m.r, m.nr = nr, r
	m.s, m.ns = ns, s
}

// ClockVec emits one keystream plane (lane L = lane L's next keystream
// bit) and advances the generator.
func (m *SlicedVec[V]) ClockVec() V {
	var z, zero V
	for k := 0; k < len(z); k++ {
		z[k] = m.r[0][k] ^ m.s[0][k]
	}
	m.clockKG(false, zero)
	return z
}

// ClockWord emits the keystream word of lanes 0..63 (bit L = lane L's
// next keystream bit) and advances all lanes. For the 64-lane engine this
// is the whole keystream plane.
func (m *SlicedVec[V]) ClockWord() uint64 {
	z := m.ClockVec()
	return z[0]
}

// Lanes returns the number of active lanes.
func (m *SlicedVec[V]) Lanes() int { return m.lanes }

// KeystreamBlockVec runs 64 clocks and transposes the result so that
// out[j][k], written little-endian, is 8 keystream bytes of lane 64·k+j
// with the cipher's MSB-first bit packing (byte-compatible with
// Ref.Keystream / Packed.Keystream).
func (m *SlicedVec[V]) KeystreamBlockVec(out *[64]V) {
	// Placing clock t at index (t&^7)|(7-t&7) makes the post-transpose
	// little-endian byte image MSB-first per byte.
	for t := 0; t < 64; t++ {
		out[(t&^7)|(7-t&7)] = m.ClockVec()
	}
	bitslice.TransposeVec(out)
}

// KeystreamBlock is KeystreamBlockVec restricted to lanes 0..63: out[L],
// written little-endian, is 8 keystream bytes of lane L.
func (m *SlicedVec[V]) KeystreamBlock(out *[64]uint64) {
	var blk [64]V
	m.KeystreamBlockVec(&blk)
	for i := range out {
		out[i] = blk[i][0]
	}
}

// Keystream fills one equal-length buffer per lane with that lane's
// keystream bytes. len(bufs) must equal Lanes() and every buffer length
// must be the same multiple of 8.
func (m *SlicedVec[V]) Keystream(bufs [][]byte) error {
	if len(bufs) != m.lanes {
		return fmt.Errorf("mickey: %d buffers for %d lanes", len(bufs), m.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("mickey: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("mickey: buffer length must be a multiple of 8")
	}
	var blk [64]V
	for off := 0; off < n; off += 8 {
		m.KeystreamBlockVec(&blk)
		for l := 0; l < m.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l&63][l>>6])
		}
	}
	return nil
}

// KeystreamWords fills dst with raw device-order keystream words of lanes
// 0..63 (one ClockVec per element, no transposition) — the cheapest bulk
// path when the consumer only needs uniform random bits.
func (m *SlicedVec[V]) KeystreamWords(dst []uint64) {
	for i := range dst {
		dst[i] = m.ClockWord()
	}
}
