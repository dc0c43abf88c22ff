package aes

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// Differential lockdown for the 64-lane datapath: with every lane in use
// and with a partial lane count (the lanes < VecLanes mask path), every
// lane of the bitsliced CTR generator must reproduce its scalar CTR
// stream byte-for-byte, for multiple batches, under distinct per-lane
// key/nonce material — and again after a Reseed.
func TestDifferentialAllWidths(t *testing.T) {
	t.Run("w64", func(t *testing.T) { diffWidth[bitslice.V64](t, 64) })
	t.Run("w64partial", func(t *testing.T) { diffWidth[bitslice.V64](t, 37) })
}

func diffMaterial(rng *rand.Rand, lanes int) (keys, nonces [][]byte) {
	keys = make([][]byte, lanes)
	nonces = make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
	}
	return keys, nonces
}

func diffWidth[V bitslice.Vec](t *testing.T, lanes int) {
	rng := rand.New(rand.NewSource(int64(7000 + lanes)))
	keys, nonces := diffMaterial(rng, lanes)
	g, err := NewSlicedCTRVec[V](keys, nonces)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRefs := func(pass string, keys, nonces [][]byte) {
		const batches = 3
		batch := lanes * BlockSize
		got := make([]byte, batches*batch)
		for i := 0; i < batches; i++ {
			g.NextBatch(got[i*batch:])
		}
		for l := 0; l < lanes; l++ {
			ref, err := NewCTR(keys[l], nonces[l])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, batches*BlockSize)
			ref.Read(want)
			for i := 0; i < batches; i++ {
				gotBlk := got[i*batch+BlockSize*l : i*batch+BlockSize*l+BlockSize]
				if !bytes.Equal(gotBlk, want[BlockSize*i:BlockSize*(i+1)]) {
					t.Fatalf("%s: lane %d/%d batch %d diverges from scalar CTR\n got %x\nwant %x",
						pass, l, lanes, i, gotBlk, want[BlockSize*i:BlockSize*(i+1)])
				}
			}
		}
	}
	checkAgainstRefs("initial", keys, nonces)
	keys2, nonces2 := diffMaterial(rng, lanes)
	if err := g.Reseed(keys2, nonces2); err != nil {
		t.Fatal(err)
	}
	checkAgainstRefs("reseed", keys2, nonces2)
}
