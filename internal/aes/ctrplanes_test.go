package aes

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// ctrMaterial builds a generator over the given lane count with
// deterministic key/nonce material for the counter-plane tests.
func ctrMaterial[V bitslice.Vec](t *testing.T, seed int64, lanes int) *SlicedCTRVec[V] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, lanes)
	nonces := make([][]byte, lanes)
	for l := range keys {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
	}
	g, err := NewSlicedCTRVec[V](keys, nonces)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// setCtrPlanes loads one explicit counter value per lane into the
// generator's counter planes, mirroring the big-endian block encoding
// the packing path used to produce per batch.
func setCtrPlanes[V bitslice.Vec](g *SlicedCTRVec[V], vals []uint64) {
	words := make([]uint64, len(vals))
	for l, v := range vals {
		// Block bytes 8..15 hold the counter big-endian; the plane
		// layout reads them as a little-endian word.
		words[l] = bits.ReverseBytes64(v)
	}
	g.ctrPl = bitslice.PackWordsVec[V](words)
}

// ctrPlaneValues reads every lane's counter value back out of the
// counter planes.
func ctrPlaneValues[V bitslice.Vec](g *SlicedCTRVec[V]) []uint64 {
	lanes := g.aes.lanes
	out := make([]uint64, lanes)
	bitslice.UnpackWordsVecInto(out, g.ctrPl[:], lanes)
	for l := range out {
		out[l] = bits.ReverseBytes64(out[l])
	}
	return out
}

// The in-plane ripple-carry increment must agree with scalar big-endian
// uint64 counter arithmetic with all 64 lanes and with a partial lane
// count, across carry chains of every length: byte boundaries, 32-bit
// word boundaries, and the full 2^64 wraparound.
func TestCounterIncrementPlanes(t *testing.T) {
	t.Run("w64", func(t *testing.T) { ctrIncrementWidth[bitslice.V64](t, 64) })
	t.Run("w64partial", func(t *testing.T) { ctrIncrementWidth[bitslice.V64](t, 37) })
}

func ctrIncrementWidth[V bitslice.Vec](t *testing.T, lanes int) {
	g := ctrMaterial[V](t, 61, lanes)
	starts := []uint64{
		0, 1, 0xFE, 0xFF, // carry into the second byte
		0xFFFE, 0x1FFFE, // carry across two and three bytes
		0xFFFF_FFFE, 0xFFFF_FFFF, // carry past the 32-bit word boundary
		0x0000_FFFF_FFFF_FFFE,      // six-byte chain
		^uint64(0) - 1, ^uint64(0), // full wraparound to zero
		0x0123_4567_89AB_CDEF,     // arbitrary interior value
		0x8000_0000_0000_0000 - 1, // carry into the top bit
	}
	const steps = 5
	for _, start := range starts {
		// All lanes share the stride the core stream uses (identical
		// counters), offset by lane so differing carry chains coexist.
		want := make([]uint64, lanes)
		for l := range want {
			want[l] = start + uint64(l&3)
		}
		setCtrPlanes(g, want)
		for step := 0; step < steps; step++ {
			g.incCounterPlanes()
			for l := range want {
				want[l]++
			}
			got := ctrPlaneValues(g)
			for l := range want {
				if got[l] != want[l] {
					t.Fatalf("start %#x step %d lane %d: planes hold %#x, scalar counter %#x",
						start, step, l, got[l], want[l])
				}
			}
		}
	}
}

// The counter planes must encode exactly the big-endian block bytes the
// scalar CTR reference feeds its cipher: plane 8i+j of the high half is
// bit j of block byte 8+i.
func TestCounterPlaneLayout(t *testing.T) {
	g := ctrMaterial[bitslice.V64](t, 62, 64)
	lanes := g.Lanes()
	vals := make([]uint64, lanes)
	rng := rand.New(rand.NewSource(63))
	for l := range vals {
		vals[l] = rng.Uint64()
	}
	setCtrPlanes(g, vals)
	g.incCounterPlanes()
	for l := 0; l < lanes; l++ {
		var blk [8]byte
		binary.BigEndian.PutUint64(blk[:], vals[l]+1)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				got := bitslice.LaneBitVec(g.ctrPl[:], 8*i+j, l)
				want := uint8(blk[i]>>uint(j)) & 1
				if got != want {
					t.Fatalf("lane %d block byte %d bit %d: plane %d, big-endian %d", l, 8+i, j, got, want)
				}
			}
		}
	}
}

// Reseed must re-derive the plane state from scalars: counters return
// to zero and the nonce planes match the new nonce material, so the
// post-Reseed stream restarts exactly like a fresh generator.
func TestCounterReseedResetsPlanes(t *testing.T) {
	t.Run("w64", func(t *testing.T) { ctrReseedWidth[bitslice.V64](t, 64) })
	t.Run("w64partial", func(t *testing.T) { ctrReseedWidth[bitslice.V64](t, 37) })
}

func ctrReseedWidth[V bitslice.Vec](t *testing.T, lanes int) {
	g := ctrMaterial[V](t, 64, lanes)
	dst := make([]byte, lanes*BlockSize)
	for i := 0; i < 7; i++ {
		g.NextBatch(dst)
	}
	for _, v := range ctrPlaneValues(g) {
		if v != 7 {
			t.Fatalf("counter planes hold %d after 7 batches", v)
		}
	}
	rng := rand.New(rand.NewSource(65))
	keys := make([][]byte, lanes)
	nonces := make([][]byte, lanes)
	nonceWords := make([]uint64, lanes)
	for l := range keys {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
		nonceWords[l] = binary.LittleEndian.Uint64(nonces[l])
	}
	if err := g.Reseed(keys, nonces); err != nil {
		t.Fatal(err)
	}
	for l, v := range ctrPlaneValues(g) {
		if v != 0 {
			t.Fatalf("lane %d counter %d after Reseed, want 0", l, v)
		}
	}
	gotNonces := make([]uint64, lanes)
	bitslice.UnpackWordsVecInto(gotNonces, g.noncePl[:], lanes)
	for l := range gotNonces {
		if gotNonces[l] != nonceWords[l] {
			t.Fatalf("lane %d nonce planes %#x, material %#x", l, gotNonces[l], nonceWords[l])
		}
	}
	// And the post-Reseed stream is the fresh scalar stream.
	g.NextBatch(dst)
	for l := 0; l < lanes; l++ {
		ref, err := NewCTR(keys[l], nonces[l])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, BlockSize)
		ref.Read(want)
		if got := dst[BlockSize*l : BlockSize*(l+1)]; string(got) != string(want) {
			t.Fatalf("lane %d post-Reseed stream diverges", l)
		}
	}
}
