package aes

import (
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// packBytesPlanesVec packs one byte per lane into 8 bit planes (plane k
// = bit k of the lane byte).
func packBytesPlanesVec[V bitslice.Vec](vals []byte) [8]V {
	var p [8]V
	for l, v := range vals {
		for k := 0; k < 8; k++ {
			bitslice.SetLaneBitVec(p[:], k, l, uint8(v>>uint(k))&1)
		}
	}
	return p
}

// unpackBytePlaneVec reads one lane's byte back out of 8 bit planes.
func unpackBytePlaneVec[V bitslice.Vec](p *[8]V, lane int) byte {
	var v byte
	for k := 0; k < 8; k++ {
		v |= byte(bitslice.LaneBitVec(p[:], k, lane)) << uint(k)
	}
	return v
}

// bpSboxPlanes applies the Boyar–Peralta circuit to an 8-plane byte
// group, word column by word column (test-only wrapper around bpSbox).
func bpSboxPlanes[V bitslice.Vec](p *[8]V) {
	for k := 0; k < len(p[0]); k++ {
		p[0][k], p[1][k], p[2][k], p[3][k], p[4][k], p[5][k], p[6][k], p[7][k] = bpSbox(
			p[0][k], p[1][k], p[2][k], p[3][k], p[4][k], p[5][k], p[6][k], p[7][k])
	}
}

// The Boyar–Peralta circuit must reproduce the generated scalar sbox
// table on every one of the 256 inputs, with all 64 lanes and with a
// partial lane count, every lane substituted independently.
func TestSboxCircuitExhaustive(t *testing.T) {
	t.Run("w64", func(t *testing.T) { sboxExhaustive[bitslice.V64](t, 64) })
	t.Run("w64partial", func(t *testing.T) { sboxExhaustive[bitslice.V64](t, 37) })
}

func sboxExhaustive[V bitslice.Vec](t *testing.T, lanes int) {
	// Cover all 256 inputs: lane l of batch b carries byte
	// (lanes·b+l) mod 256, so the table is swept across batches.
	for base := 0; base < 256; base += lanes {
		vals := make([]byte, lanes)
		for l := range vals {
			vals[l] = byte((base + l) % 256)
		}
		p := packBytesPlanesVec[V](vals)
		bpSboxPlanes(&p)
		for l := 0; l < lanes; l++ {
			if got := unpackBytePlaneVec(&p, l); got != sbox[vals[l]] {
				t.Fatalf("lane %d: circuit(%#02x) = %#02x, want %#02x", l, vals[l], got, sbox[vals[l]])
			}
		}
	}
}

// stateBytes is one random 16-byte block per lane, plus its plane form.
func randomState[V bitslice.Vec](rng *rand.Rand) ([][16]byte, [128]V) {
	lanes := bitslice.VecLanes[V]()
	blocks := make([][16]byte, lanes)
	for l := range blocks {
		rng.Read(blocks[l][:])
	}
	return blocks, PackBlocksVec[V](blocks)
}

// subShiftP must equal scalar SubBytes followed by scalar ShiftRows:
// byte b of the output is sbox[input byte shiftSrc[b]] in every lane.
func TestSubShiftRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	blocks, st := randomState[bitslice.V64](rng)
	var dst [128]bitslice.V64
	subShiftP(&dst, &st)
	out := UnpackBlocksVec(&dst, len(blocks))
	for l, blk := range blocks {
		var want [16]byte
		copy(want[:], blk[:])
		subBytes(&want)
		shiftRows(&want)
		if out[l] != want {
			t.Fatalf("lane %d: subShiftP %x, scalar SB+SR %x", l, out[l], want)
		}
	}
}

// subShiftXorP folds a round key XOR into the S-box load: byte b of the
// output is sbox[input ^ rk at shiftSrc[b]].
func TestSubShiftXorWhitening(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	blocks, st := randomState[bitslice.V64](rng)
	rkBlocks, rk := randomState[bitslice.V64](rng)
	var dst [128]bitslice.V64
	subShiftXorP(&dst, &st, &rk)
	out := UnpackBlocksVec(&dst, len(blocks))
	for l, blk := range blocks {
		var want [16]byte
		for i := range want {
			want[i] = blk[i] ^ rkBlocks[l][i]
		}
		subBytes(&want)
		shiftRows(&want)
		if out[l] != want {
			t.Fatalf("lane %d: subShiftXorP %x, scalar ARK+SB+SR %x", l, out[l], want)
		}
	}
}

// mixColumnsARKP must equal scalar MixColumns followed by AddRoundKey.
func TestMixColumnsARK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	blocks, st := randomState[bitslice.V64](rng)
	rkBlocks, rk := randomState[bitslice.V64](rng)
	var dst [128]bitslice.V64
	mixColumnsARKP(&dst, &st, &rk)
	out := UnpackBlocksVec(&dst, len(blocks))
	for l, blk := range blocks {
		var want [16]byte
		copy(want[:], blk[:])
		mixColumns(&want)
		addRoundKey(&want, &rkBlocks[l])
		if out[l] != want {
			t.Fatalf("lane %d: mixColumnsARKP %x, scalar MC+ARK %x", l, out[l], want)
		}
	}
}
