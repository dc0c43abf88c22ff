package mickey

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// Differential lockdown for the 64-lane datapath: with every lane in use
// and with a partial lane count (the lanes < VecLanes mask path), every
// lane of the bitsliced engine must reproduce its scalar reference
// keystream byte-for-byte, for multiple 64-clock blocks, under distinct
// per-lane key/IV material — and again after a Reseed.
func TestDifferentialAllWidths(t *testing.T) {
	t.Run("w64", func(t *testing.T) { diffWidth[bitslice.V64](t, 64) })
	// A partial lane count must behave identically (the unused high
	// lanes are the easy thing to get wrong).
	t.Run("w64partial", func(t *testing.T) { diffWidth[bitslice.V64](t, 37) })
}

func diffMaterial(rng *rand.Rand, lanes int) (keys, ivs [][]byte) {
	keys = make([][]byte, lanes)
	ivs = make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	return keys, ivs
}

func diffWidth[V bitslice.Vec](t *testing.T, lanes int) {
	rng := rand.New(rand.NewSource(int64(4000 + lanes)))
	keys, ivs := diffMaterial(rng, lanes)
	sl, err := NewSlicedVec[V](keys, ivs, MaxIVBits)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRefs := func(pass string, keys, ivs [][]byte) {
		const n = 24 // three 64-clock blocks per lane
		bufs := make([][]byte, lanes)
		for l := range bufs {
			bufs[l] = make([]byte, n)
		}
		if err := sl.Keystream(bufs); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			ref, err := NewRef(keys[l], ivs[l], MaxIVBits)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			ref.Keystream(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("%s: lane %d/%d diverges from scalar reference\n got %x\nwant %x",
					pass, l, lanes, bufs[l], want)
			}
		}
	}
	checkAgainstRefs("initial", keys, ivs)
	keys2, ivs2 := diffMaterial(rng, lanes)
	if err := sl.Reseed(keys2, ivs2, MaxIVBits); err != nil {
		t.Fatal(err)
	}
	checkAgainstRefs("reseed", keys2, ivs2)
}
