package aes

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// SlicedVec is the bitsliced AES-128 over the plane type V
// (bitslice.V64, one machine word): the 128-bit state becomes 128
// V-planes (plane 8b+k = bit k of state byte b across the lanes), so one
// EncryptBlocks call performs 64 independent block encryptions, each
// lane under its own key.
type SlicedVec[V bitslice.Vec] struct {
	rk    [][128]V // 11 plane-form round keys
	lanes int

	// sb is the double-buffer for the fused SubBytes+ShiftRows pass:
	// each round writes S-box output planes into sb at their
	// post-ShiftRows positions, then MixColumns+AddRoundKey writes back
	// into the caller's state. Owning it here keeps EncryptBlocks
	// allocation-free; it also means one engine must not encrypt from
	// two goroutines at once (already the contract of every bitsliced
	// engine in this repository).
	sb [128]V

	// Per-round per-lane round-key words, reused across Reseed calls so
	// the segment-rekey hot path never allocates.
	klo, khi [][]uint64
}

// Sliced is the native 64-lane engine (the uint64 datapath).
type Sliced = SlicedVec[bitslice.V64]

// NewSliced expands one 16-byte AES-128 key per lane (1..64 lanes).
func NewSliced(keys [][]byte) (*Sliced, error) {
	return NewSlicedVec[bitslice.V64](keys)
}

// NewSlicedVec expands one 16-byte AES-128 key per lane, for up to
// bitslice.VecLanes[V]() lanes.
func NewSlicedVec[V bitslice.Vec](keys [][]byte) (*SlicedVec[V], error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.VecLanes[V]() {
		return nil, fmt.Errorf("aes: lane count %d out of range [1,%d]", lanes, bitslice.VecLanes[V]())
	}
	s := &SlicedVec[V]{
		rk:    make([][128]V, 11),
		lanes: lanes,
		klo:   make([][]uint64, 11),
		khi:   make([][]uint64, 11),
	}
	for r := 0; r <= 10; r++ {
		s.klo[r] = make([]uint64, lanes)
		s.khi[r] = make([]uint64, lanes)
	}
	if err := s.Reseed(keys); err != nil {
		return nil, err
	}
	return s, nil
}

// Reseed replaces every lane's key, re-running the key schedule in place.
// The lane count must match the one the engine was built with. Reseed is
// allocation-free: the key material lands in scratch owned by the engine.
func (s *SlicedVec[V]) Reseed(keys [][]byte) error {
	if len(keys) != s.lanes {
		return fmt.Errorf("aes: %d keys for %d lanes", len(keys), s.lanes)
	}
	var rk [11][16]byte
	for l, key := range keys {
		if len(key) != 16 {
			return fmt.Errorf("aes: lane %d key must be 16 bytes", l)
		}
		expandKey128(key, &rk)
		for r := 0; r <= 10; r++ {
			s.klo[r][l] = binary.LittleEndian.Uint64(rk[r][0:8])
			s.khi[r][l] = binary.LittleEndian.Uint64(rk[r][8:16])
		}
	}
	for r := 0; r <= 10; r++ {
		lo := bitslice.PackWordsVec[V](s.klo[r])
		hi := bitslice.PackWordsVec[V](s.khi[r])
		copy(s.rk[r][0:64], lo[:])
		copy(s.rk[r][64:128], hi[:])
	}
	return nil
}

// Lanes returns the number of active lanes.
func (s *SlicedVec[V]) Lanes() int { return s.lanes }

// EncryptBlocks encrypts the lane blocks held in plane form in st. The
// round loop is two fused passes per round — SubBytes+ShiftRows (S-box
// planes written at their post-rotation byte positions, so ShiftRows is
// pure index renaming) ping-ponging into the engine's scratch, then
// MixColumns+AddRoundKey back into st — with the round-0 whitening
// folded into the first S-box load and the final AddRoundKey fused with
// the copy-back. No pass over the 128 planes ever runs alone.
func (s *SlicedVec[V]) EncryptBlocks(st *[128]V) {
	sb := &s.sb
	subShiftXorP(sb, st, &s.rk[0])
	mixColumnsARKP(st, sb, &s.rk[1])
	for r := 2; r < 10; r++ {
		subShiftP(sb, st)
		mixColumnsARKP(st, sb, &s.rk[r])
	}
	subShiftP(sb, st)
	addRoundKeyFromP(st, sb, &s.rk[10])
}

// PackBlocksVec converts per-lane 16-byte blocks into plane form.
func PackBlocksVec[V bitslice.Vec](blocks [][16]byte) [128]V {
	if len(blocks) > bitslice.VecLanes[V]() {
		panic("aes: more blocks than lanes")
	}
	los := make([]uint64, len(blocks))
	his := make([]uint64, len(blocks))
	for l := range blocks {
		los[l] = binary.LittleEndian.Uint64(blocks[l][0:8])
		his[l] = binary.LittleEndian.Uint64(blocks[l][8:16])
	}
	var st [128]V
	lo := bitslice.PackWordsVec[V](los)
	hi := bitslice.PackWordsVec[V](his)
	copy(st[0:64], lo[:])
	copy(st[64:128], hi[:])
	return st
}

// PackBlocks converts 1..64 16-byte blocks (one per lane) into plane form.
func PackBlocks(blocks [][16]byte) [128]bitslice.V64 {
	return PackBlocksVec[bitslice.V64](blocks)
}

// UnpackBlocksVec converts plane form back to per-lane blocks.
func UnpackBlocksVec[V bitslice.Vec](st *[128]V, lanes int) [][16]byte {
	var lo, hi [64]V
	copy(lo[:], st[0:64])
	copy(hi[:], st[64:128])
	loW := bitslice.UnpackWordsVec(&lo, lanes)
	hiW := bitslice.UnpackWordsVec(&hi, lanes)
	out := make([][16]byte, lanes)
	for l := 0; l < lanes; l++ {
		binary.LittleEndian.PutUint64(out[l][0:8], loW[l])
		binary.LittleEndian.PutUint64(out[l][8:16], hiW[l])
	}
	return out
}

// UnpackBlocks converts 64-lane plane form back to per-lane blocks.
func UnpackBlocks(st *[128]bitslice.V64, lanes int) [][16]byte {
	return UnpackBlocksVec(st, lanes)
}

// SlicedCTRVec is the bitsliced AES-128-CTR generator of paper Fig. 3 over
// the plane width V: every lane runs its own nonce‖counter stream under
// its own key, and one batch encrypts one block per lane at once.
//
// The CTR input block lives permanently in plane form: noncePl holds the
// (constant) nonce planes and ctrPl the live counter planes, so a batch
// never transposes scalar words into planes — it copies the cached
// planes into the state and advances the counter with a bitsliced
// ripple-carry add (incCounterPlanes). Planes are re-derived from scalar
// material only on Reseed.
type SlicedCTRVec[V bitslice.Vec] struct {
	aes     *SlicedVec[V]
	noncePl [64]V // planes of block bytes 0..7: the per-lane nonces
	ctrPl   [64]V // planes of block bytes 8..15: the big-endian counters
	st      [128]V

	// Per-batch scratch words, owned by the generator so the per-block
	// hot path (NextBatch/Keystream) never allocates. nonces doubles as
	// the Reseed-time packing scratch.
	nonces   []uint64
	los, his []uint64
}

// SlicedCTR is the native 64-lane CTR generator.
type SlicedCTR = SlicedCTRVec[bitslice.V64]

// BatchSize is the output of one 64-lane SlicedCTR batch: 64 lanes × 16
// bytes. Wider engines emit Lanes()×BlockSize bytes per batch.
const BatchSize = 64 * BlockSize

// NewSlicedCTR builds the 64-lane generator; keys[L] and nonces[L]
// (8 bytes each) belong to lane L. Lane counters start at zero.
func NewSlicedCTR(keys [][]byte, nonces [][]byte) (*SlicedCTR, error) {
	return NewSlicedCTRVec[bitslice.V64](keys, nonces)
}

// NewSlicedCTRVec builds a generator of up to bitslice.VecLanes[V]() lanes.
func NewSlicedCTRVec[V bitslice.Vec](keys [][]byte, nonces [][]byte) (*SlicedCTRVec[V], error) {
	a, err := NewSlicedVec[V](keys)
	if err != nil {
		return nil, err
	}
	g := &SlicedCTRVec[V]{
		aes:    a,
		nonces: make([]uint64, a.lanes),
		los:    make([]uint64, a.lanes),
		his:    make([]uint64, a.lanes),
	}
	if err := g.loadNonces(nonces); err != nil {
		return nil, err
	}
	return g, nil
}

// loadNonces validates the per-lane nonces and caches them as bit
// planes: one word transpose here replaces one per batch.
func (g *SlicedCTRVec[V]) loadNonces(nonces [][]byte) error {
	if len(nonces) != g.aes.lanes {
		return fmt.Errorf("aes: %d nonces for %d lanes", len(nonces), g.aes.lanes)
	}
	for l, n := range nonces {
		if len(n) != 8 {
			return fmt.Errorf("aes: lane %d nonce must be 8 bytes", l)
		}
		g.nonces[l] = binary.LittleEndian.Uint64(n)
	}
	g.noncePl = bitslice.PackWordsVec[V](g.nonces)
	return nil
}

// Reseed rekeys every lane, replaces its nonce, and resets its counter to
// zero. The lane count must match the one the generator was built with.
func (g *SlicedCTRVec[V]) Reseed(keys [][]byte, nonces [][]byte) error {
	if err := g.aes.Reseed(keys); err != nil {
		return err
	}
	if err := g.loadNonces(nonces); err != nil {
		return err
	}
	clear(g.ctrPl[:])
	return nil
}

// Lanes returns the number of active lanes.
func (g *SlicedCTRVec[V]) Lanes() int { return g.aes.lanes }

// ctrPlane maps counter bit p (0 = least significant) to its index in
// ctrPl: block byte 8+i holds big-endian counter byte 7-i, and plane
// 8i+j of the high half is bit j of block byte 8+i.
func ctrPlane(p int) int { return 56 - 8*(p>>3) + (p & 7) }

// incCounterPlanes adds one to every lane's counter directly in plane
// form: a bitsliced ripple-carry add from the counter's least
// significant plane upward, stopping as soon as no lane carries. The
// core stream resets counters to zero each segment pass, so every
// lane's counter is small and the live carry chain is a handful of
// planes; a full 64-plane ripple happens only at the 2^64 wraparound,
// where every counter returns to zero exactly like the scalar uint64
// counter it mirrors.
func (g *SlicedCTRVec[V]) incCounterPlanes() {
	carry := bitslice.BroadcastVec[V](1)
	for p := 0; p < 64; p++ {
		idx := ctrPlane(p)
		old := g.ctrPl[idx]
		var live uint64
		for k := 0; k < len(old); k++ {
			g.ctrPl[idx][k] = old[k] ^ carry[k]
			carry[k] &= old[k]
			live |= carry[k]
		}
		if live == 0 {
			return
		}
	}
}

// nextBlockPlanes encrypts one nonce‖counter block per lane, leaving the
// lane output words in g.los/g.his, and advances every lane counter. The
// input block is assembled by plane copy alone — the nonce planes are
// cached and the counter already lives in plane form — so the only
// transposes per batch are the two output unpacks.
func (g *SlicedCTRVec[V]) nextBlockPlanes() {
	lanes := g.aes.lanes
	st := &g.st
	copy(st[0:64], g.noncePl[:])
	copy(st[64:128], g.ctrPl[:])
	g.incCounterPlanes()
	g.aes.EncryptBlocks(st)
	bitslice.UnpackWordsVecInto(g.los, st[0:64], lanes)
	bitslice.UnpackWordsVecInto(g.his, st[64:128], lanes)
}

// NextBatch writes lanes×16 bytes into dst (lane L's block at offset
// 16·L, identical bytes to lane L's scalar CTR stream) and advances every
// lane counter. len(dst) must be at least Lanes()×16.
func (g *SlicedCTRVec[V]) NextBatch(dst []byte) {
	lanes := g.aes.lanes
	if len(dst) < lanes*BlockSize {
		panic("aes: batch buffer too small")
	}
	g.nextBlockPlanes()
	for l := 0; l < lanes; l++ {
		binary.LittleEndian.PutUint64(dst[16*l:], g.los[l])
		binary.LittleEndian.PutUint64(dst[16*l+8:], g.his[l])
	}
}

// Keystream fills one equal-length buffer per lane with that lane's CTR
// keystream — the same bytes NextBatch would deliver, written straight
// into the per-lane destinations with no intermediate batch buffer.
// len(bufs) must equal Lanes() and every buffer length must be the same
// multiple of BlockSize. The fill is allocation-free.
func (g *SlicedCTRVec[V]) Keystream(bufs [][]byte) error {
	if len(bufs) != g.aes.lanes {
		return fmt.Errorf("aes: %d buffers for %d lanes", len(bufs), g.aes.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("aes: ragged keystream buffers")
		}
	}
	if n%BlockSize != 0 {
		return fmt.Errorf("aes: buffer length must be a multiple of %d", BlockSize)
	}
	for off := 0; off < n; off += BlockSize {
		g.nextBlockPlanes()
		for l, b := range bufs {
			binary.LittleEndian.PutUint64(b[off:off+8], g.los[l])
			binary.LittleEndian.PutUint64(b[off+8:off+16], g.his[l])
		}
	}
	return nil
}
