// Package chaotic implements a chaotic-iterations post-processing mode
// in the style of Bahi, Couchot and Guyeux's CIPRNG family: a generator
// is hardened by iterating a Boolean map whose perturbation input is the
// inner generator's output. In the XOR-form CIPRNG the map is the
// negation of every strategy-selected bit at once, which collapses to
//
//	x_{n+1} = x_n ⊕ w_{n+1},   output x_{n+1}
//
// over 64-bit words, where w is the inner keystream. The composition is
// a bijection of the inner word sequence for any fixed x_0 (each output
// word is the running XOR prefix of the inputs plus a constant), so it
// preserves the uniformity of a good inner generator while breaking the
// word-local structure of a flawed one: any bias that flips sign across
// consecutive words partially cancels in the prefix sums, and the
// chaotic orbit property of the underlying Boolean map (Devaney chaos,
// per Bahi et al.) guarantees sensitivity to the initial word x_0.
//
// The repository applies the mode per 2048-byte segment with a
// per-(lane, segment) x_0 derived from the seed schedule, so segments
// stay independently addressable and the canonical segment stream is
// untouched.
package chaotic

import "encoding/binary"

// Post applies XOR-form chaotic-iterations post-processing to seg in
// place: interpreting seg as little-endian 64-bit words, each word is
// replaced by the running XOR of x0 and all inner words up to and
// including it. len(seg) must be a multiple of 8 (core segments are).
func Post(seg []byte, x0 uint64) {
	x := x0
	for o := 0; o+8 <= len(seg); o += 8 {
		x ^= binary.LittleEndian.Uint64(seg[o:])
		binary.LittleEndian.PutUint64(seg[o:], x)
	}
}

// Unpost inverts Post for the same x0, recovering the inner keystream:
// each inner word is the XOR of two consecutive output words (the first
// with x0). It exists so tests can prove the mode is a bijection.
func Unpost(seg []byte, x0 uint64) {
	prev := x0
	for o := 0; o+8 <= len(seg); o += 8 {
		cur := binary.LittleEndian.Uint64(seg[o:])
		binary.LittleEndian.PutUint64(seg[o:], cur^prev)
		prev = cur
	}
}
