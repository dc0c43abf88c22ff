package bitslice

// Vector planes. The paper's throughput argument is lane count: one
// machine word carries one bit of W independent cipher instances (§3,
// Fig. 10). On the CPU that word is one native uint64 — 64 lanes, two
// 32-lane CUDA registers — and further parallelism comes from running
// many independent engines on many workers, as the paper runs one
// engine per CUDA thread (see DESIGN.md §7). Wider [K]uint64 planes
// emitted the same bytes but lost to 64 lanes on every measured family,
// because Go's compiler does not vectorize them, so they were removed.
//
// The engines stay generic over Vec so their kernels compile exactly as
// before; Vec has one member, V64. Lane numbering: lane L lives in word
// L/64 at bit L%64, and the plain uint64 helpers in bitslice.go are the
// same operations on a bare word.

// V64 is the native single-word plane: 64 lanes.
type V64 [1]uint64

// Vec is the constraint satisfied by the plane type: V64 only.
type Vec interface {
	V64
}

// VecWords returns K, the number of uint64 words in V.
func VecWords[V Vec]() int {
	var v V
	return len(v)
}

// VecLanes returns the lane count of V (64·K).
func VecLanes[V Vec]() int {
	var v V
	return 64 * len(v)
}

// BroadcastVec returns the plane with every lane set to b (0 or 1).
func BroadcastVec[V Vec](b uint8) V {
	var v V
	if b&1 == 1 {
		for k := 0; k < len(v); k++ {
			v[k] = ^uint64(0)
		}
	}
	return v
}

// SetLaneBitVec sets bit i of the given lane in planes to b (0 or 1).
func SetLaneBitVec[V Vec](planes []V, i, lane int, b uint8) {
	mask := uint64(1) << uint(lane&63)
	if b&1 == 1 {
		planes[i][lane>>6] |= mask
	} else {
		planes[i][lane>>6] &^= mask
	}
}

// LaneBitVec reads bit i of the given lane.
func LaneBitVec[V Vec](planes []V, i, lane int) uint8 {
	return uint8((planes[i][lane>>6] >> uint(lane&63)) & 1)
}

// ExtractLaneVec returns the row-major bit vector of a single lane.
func ExtractLaneVec[V Vec](planes []V, lane int) []uint8 {
	bits := make([]uint8, len(planes))
	k, sh := lane>>6, uint(lane&63)
	for i := range planes {
		bits[i] = uint8((planes[i][k] >> sh) & 1)
	}
	return bits
}

// PackBitsVec converts row-major per-lane bit vectors into column-major
// Vec planes: bit L of plane i is bits[L][i]. All lanes must have equal
// length; up to VecLanes[V]() lanes are supported.
func PackBitsVec[V Vec](bits [][]uint8) []V {
	if len(bits) == 0 {
		return nil
	}
	if len(bits) > VecLanes[V]() {
		panic("bitslice: lane count exceeds vector width")
	}
	n := len(bits[0])
	planes := make([]V, n)
	for lane, bv := range bits {
		if len(bv) != n {
			panic("bitslice: ragged lane lengths")
		}
		k, sh := lane>>6, uint(lane&63)
		for i, b := range bv {
			planes[i][k] |= uint64(b&1) << sh
		}
	}
	return planes
}

// UnpackBitsVec is the inverse of PackBitsVec for the given lane count.
func UnpackBitsVec[V Vec](planes []V, lanes int) [][]uint8 {
	if lanes < 0 || lanes > VecLanes[V]() {
		panic("bitslice: lane count out of range")
	}
	out := make([][]uint8, lanes)
	for l := range out {
		out[l] = ExtractLaneVec(planes, l)
	}
	return out
}

// TransposeVec performs K independent in-place 64x64 bit-matrix
// transpositions, one per word column: afterwards, bit j of a[i][k] is
// the former bit i of a[j][k]. With a[t] holding the lane-parallel
// output plane of clock t, the transposed a[j][k] holds 64 consecutive
// keystream bits of lane 64·k+j.
func TransposeVec[V Vec](a *[64]V) {
	var t [64]uint64
	var v V
	for k := 0; k < len(v); k++ {
		for i := 0; i < 64; i++ {
			t[i] = a[i][k]
		}
		Transpose64(&t)
		for i := 0; i < 64; i++ {
			a[i][k] = t[i]
		}
	}
}

// PackWordsVec packs one uint64 value per lane into 64 Vec planes:
// plane i, lane L is bit i of vals[L]. Fewer than VecLanes[V]() lanes
// leaves the remaining lane bits zero.
func PackWordsVec[V Vec](vals []uint64) [64]V {
	if len(vals) > VecLanes[V]() {
		panic("bitslice: lane count exceeds vector width")
	}
	var out [64]V
	var t [64]uint64
	var v V
	for k := 0; k < len(v); k++ {
		lo := 64 * k
		if lo >= len(vals) {
			break
		}
		hi := lo + 64
		if hi > len(vals) {
			hi = len(vals)
		}
		for i := range t {
			t[i] = 0
		}
		copy(t[:], vals[lo:hi])
		Transpose64(&t)
		for i := 0; i < 64; i++ {
			out[i][k] = t[i]
		}
	}
	return out
}

// UnpackWordsVec inverts PackWordsVec: it returns one uint64 per lane
// assembled from the 64 planes.
func UnpackWordsVec[V Vec](planes *[64]V, lanes int) []uint64 {
	if lanes < 0 || lanes > VecLanes[V]() {
		panic("bitslice: lane count out of range")
	}
	out := make([]uint64, lanes)
	UnpackWordsVecInto(out, planes[:], lanes)
	return out
}

// UnpackWordsVecInto is the allocation-free form of UnpackWordsVec: it
// assembles one uint64 per lane from the first 64 planes into dst. dst
// must hold at least lanes words and planes at least 64 planes.
func UnpackWordsVecInto[V Vec](dst []uint64, planes []V, lanes int) {
	if lanes < 0 || lanes > VecLanes[V]() {
		panic("bitslice: lane count out of range")
	}
	if len(dst) < lanes || len(planes) < 64 {
		panic("bitslice: unpack buffers too short")
	}
	var t [64]uint64
	var v V
	for k := 0; k < len(v); k++ {
		lo := 64 * k
		if lo >= lanes {
			break
		}
		for i := 0; i < 64; i++ {
			t[i] = planes[i][k]
		}
		Transpose64(&t)
		hi := lo + 64
		if hi > lanes {
			hi = lanes
		}
		copy(dst[lo:hi], t[:hi-lo])
	}
}
