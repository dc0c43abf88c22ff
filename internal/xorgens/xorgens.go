// Package xorgens implements an xorgens-style F₂-linear generator
// (Brent's xorgens4096 word recurrence; see also Nandapalan & Brent,
// "High-Performance Pseudo-Random Number Generation on GPUs") as the
// repository's fifth engine family. Unlike the eSTREAM stream ciphers,
// the state update is purely word-linear over F₂ — xor-shifts of whole
// 64-bit words — which makes it the natural next family for the paper's
// §4 technique: in bitsliced form every xor-shift is a fixed-offset
// plane XOR, so the whole recurrence is straight-line XOR circuitry
// with no clock-by-clock bit extraction at all.
//
// Recurrence (Brent, xorgens v3 parameters for 64-bit words, r = 64,
// i.e. a 4096-bit state):
//
//	x_k = x_{k-r}(I + L^a)(I + R^b) ⊕ x_{k-s}(I + L^c)(I + R^d)
//	(r, s, a, b, c, d) = (64, 53, 33, 26, 27, 29)
//
// where L/R are left/right word shifts. The engine emits x_k itself as
// the keystream word. Brent's combined Weyl-sequence output tempering
// is deliberately omitted: integer addition carries do not bitslice
// into plane operations, and this repository's seeding already gives
// every segment dense, decorrelated starting state (see expand), which
// is the degenerate-seed weakness the Weyl step defends against. The
// offline known-answer caveat of DESIGN.md §2 applies: the binding
// contract is the scalar reference below, which the differential suite
// holds the bitsliced engine to on every lane.
//
// Keying: KeySize+IVSize bytes are folded into a 64-bit digest,
// expanded to the 4096-bit state with a splitmix64-style sequence, and
// the recurrence is clocked 2r times with discarded output so
// initialisation regularities cannot reach the keystream (Brent warms
// xorgens up the same way). Output bytes are the keystream words in
// little-endian order.
package xorgens

import (
	"encoding/binary"
	"fmt"
)

// KeySize is the engine key length in bytes.
const KeySize = 32

// IVSize is the engine initialization-vector length in bytes.
const IVSize = 16

// The xorgens4096 parameter set for 64-bit words.
const (
	r = 64 // state words (4096 bits)
	s = 53 // second tap distance
	a = 33 // left shift of the x_{k-r} term
	b = 26 // right shift of the x_{k-r} term
	c = 27 // left shift of the x_{k-s} term
	d = 29 // right shift of the x_{k-s} term
)

// warmupSteps is the number of discarded initialisation steps: two full
// state rotations, a multiple of r so every keyed engine starts at the
// same ring position.
const warmupSteps = 2 * r

// mix64 is the splitmix64 finalizer, used by the key expansion.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// step advances the ring buffer x (len r) by one word: slot i+1 mod r —
// the oldest word x_{k-r} — is replaced by x_k, which is also returned.
// i is the slot of the most recently produced word.
func step(x []uint64, i int) (int, uint64) {
	i = (i + 1) & (r - 1)
	t := x[i] // x_{k-r}
	t ^= t << a
	t ^= t >> b
	v := x[(i+(r-s))&(r-1)] // x_{k-s}
	v ^= v << c
	v ^= v >> d
	t ^= v
	x[i] = t
	return i, t
}

// expand derives the warmed-up r-word state from one (key, iv) pair
// into x (len r). Every key/iv byte influences the digest; the
// splitmix64 expansion makes an all-zero state unreachable in practice,
// and the warmup rotations diffuse any residual structure. The ring
// position after expand is r-1 (the next step fills slot 0).
func expand(key, iv []byte, x []uint64) {
	h := uint64(0x9E3779B97F4A7C15)
	for o := 0; o+8 <= len(key); o += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(key[o:]))
	}
	for o := 0; o+8 <= len(iv); o += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(iv[o:]))
	}
	sm := h
	for w := 0; w < r; w++ {
		sm += 0x9E3779B97F4A7C15
		x[w] = mix64(sm)
	}
	i := r - 1
	for n := 0; n < warmupSteps; n++ {
		i, _ = step(x, i)
	}
}

// checkMaterial validates one (key, iv) pair.
func checkMaterial(key, iv []byte) error {
	if len(key) != KeySize {
		return fmt.Errorf("xorgens: key must be %d bytes", KeySize)
	}
	if len(iv) != IVSize {
		return fmt.Errorf("xorgens: iv must be %d bytes", IVSize)
	}
	return nil
}

// Ref is the scalar reference implementation: one generator instance,
// one word per step.
type Ref struct {
	x [r]uint64
	i int
}

// NewRef returns a keyed generator.
func NewRef(key, iv []byte) (*Ref, error) {
	if err := checkMaterial(key, iv); err != nil {
		return nil, err
	}
	g := &Ref{i: r - 1}
	expand(key, iv, g.x[:])
	return g, nil
}

// NextWord emits the next keystream word.
func (g *Ref) NextWord() uint64 {
	var w uint64
	g.i, w = step(g.x[:], g.i)
	return w
}

// Keystream fills dst with keystream bytes — successive words written
// little-endian. len(dst) must be a multiple of 8.
func (g *Ref) Keystream(dst []byte) {
	if len(dst)%8 != 0 {
		panic("xorgens: keystream length must be a multiple of 8")
	}
	for o := 0; o < len(dst); o += 8 {
		binary.LittleEndian.PutUint64(dst[o:o+8], g.NextWord())
	}
}
