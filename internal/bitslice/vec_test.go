package bitslice

import (
	"math/rand"
	"testing"
)

func testVecWidths[V Vec](t *testing.T) {
	var v V
	if got := VecWords[V](); got != len(v) {
		t.Fatalf("VecWords = %d, want %d", got, len(v))
	}
	if got := VecLanes[V](); got != 64*len(v) {
		t.Fatalf("VecLanes = %d, want %d", got, 64*len(v))
	}
}

func TestVecWidths(t *testing.T) {
	t.Run("widths/64", testVecWidths[V64])
}

func testBroadcastVec[V Vec](t *testing.T) {
	ones := BroadcastVec[V](1)
	zeros := BroadcastVec[V](0)
	for k := 0; k < len(ones); k++ {
		if ones[k] != ^uint64(0) {
			t.Fatalf("BroadcastVec(1) word %d = %x", k, ones[k])
		}
		if zeros[k] != 0 {
			t.Fatalf("BroadcastVec(0) word %d = %x", k, zeros[k])
		}
	}
}

func TestBroadcastVec(t *testing.T) {
	t.Run("broadcast/64", testBroadcastVec[V64])
}

func testLaneBitsVec[V Vec](t *testing.T) {
	lanes := VecLanes[V]()
	planes := make([]V, 37)
	rng := rand.New(rand.NewSource(int64(lanes)))
	type pt struct{ i, l int }
	set := map[pt]uint8{}
	for n := 0; n < 500; n++ {
		i, l, b := rng.Intn(len(planes)), rng.Intn(lanes), uint8(rng.Intn(2))
		SetLaneBitVec(planes, i, l, b)
		set[pt{i, l}] = b
	}
	for p, b := range set {
		if got := LaneBitVec(planes, p.i, p.l); got != b {
			t.Fatalf("bit (%d, lane %d) = %d, want %d", p.i, p.l, got, b)
		}
	}
	// ExtractLaneVec must agree with LaneBitVec.
	for l := 0; l < lanes; l += 7 {
		bits := ExtractLaneVec(planes, l)
		for i := range bits {
			if bits[i] != LaneBitVec(planes, i, l) {
				t.Fatalf("ExtractLaneVec disagrees at (%d, lane %d)", i, l)
			}
		}
	}
}

func TestLaneBitsVec(t *testing.T) {
	t.Run("lanebits/64", testLaneBitsVec[V64])
}

func testPackBitsVecRoundTrip[V Vec](t *testing.T) {
	lanes := VecLanes[V]()
	rng := rand.New(rand.NewSource(99))
	bits := make([][]uint8, lanes)
	for l := range bits {
		bits[l] = make([]uint8, 53)
		for i := range bits[l] {
			bits[l][i] = uint8(rng.Intn(2))
		}
	}
	planes := PackBitsVec[V](bits)
	back := UnpackBitsVec(planes, lanes)
	for l := range bits {
		for i := range bits[l] {
			if bits[l][i] != back[l][i] {
				t.Fatalf("lane %d bit %d: round trip broke", l, i)
			}
		}
	}
}

func TestPackBitsVecRoundTrip(t *testing.T) {
	t.Run("packbits/64", testPackBitsVecRoundTrip[V64])
}

func testPackWordsVecRoundTrip[V Vec](t *testing.T) {
	lanes := VecLanes[V]()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, lanes / 2, lanes} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		planes := PackWordsVec[V](vals)
		back := UnpackWordsVec(&planes, n)
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("n=%d lane %d: %x != %x", n, i, back[i], vals[i])
			}
		}
		// Plane i, lane L must be bit i of vals[L].
		for i := 0; i < 64; i += 13 {
			for l := 0; l < n; l += 19 {
				want := uint8((vals[l] >> uint(i)) & 1)
				if got := uint8((planes[i][l>>6] >> uint(l&63)) & 1); got != want {
					t.Fatalf("plane %d lane %d: bit %d != %d", i, l, got, want)
				}
			}
		}
	}
}

func TestPackWordsVecRoundTrip(t *testing.T) {
	t.Run("packwords/64", testPackWordsVecRoundTrip[V64])
}

func testTransposeVecInvolution[V Vec](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, orig [64]V
	for i := range a {
		for k := 0; k < len(a[i]); k++ {
			a[i][k] = rng.Uint64()
		}
	}
	orig = a
	TransposeVec(&a)
	// Spot-check the transposition itself: bit j of a[i][k] must be the
	// former bit i of a[j][k].
	for i := 0; i < 64; i += 11 {
		for j := 0; j < 64; j += 13 {
			for k := 0; k < len(a[i]); k++ {
				got := (a[i][k] >> uint(j)) & 1
				want := (orig[j][k] >> uint(i)) & 1
				if got != want {
					t.Fatalf("transpose wrong at (%d,%d) word %d", i, j, k)
				}
			}
		}
	}
	TransposeVec(&a)
	if a != orig {
		t.Fatal("TransposeVec is not an involution")
	}
}

func TestTransposeVecInvolution(t *testing.T) {
	t.Run("transpose/64", testTransposeVecInvolution[V64])
}

// The V64 path must agree exactly with the legacy uint64 helpers.
func TestVecMatchesScalarHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	scalar := PackWords(vals)
	vec := PackWordsVec[V64](vals)
	for i := range scalar {
		if scalar[i] != vec[i][0] {
			t.Fatalf("plane %d: PackWordsVec[V64] diverges from PackWords", i)
		}
	}
	var a64 [64]uint64
	var av [64]V64
	for i := range a64 {
		a64[i] = vals[i]
		av[i][0] = vals[i]
	}
	Transpose64(&a64)
	TransposeVec(&av)
	for i := range a64 {
		if a64[i] != av[i][0] {
			t.Fatalf("plane %d: TransposeVec[V64] diverges from Transpose64", i)
		}
	}
}
