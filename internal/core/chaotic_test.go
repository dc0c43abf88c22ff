package core

import (
	"bytes"
	"testing"

	"repro/internal/chaotic"
)

func TestParseAlgorithmChaotic(t *testing.T) {
	for _, base := range Algorithms {
		spelled := "chaotic(" + base.String() + ")"
		alg, err := ParseAlgorithm(spelled)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", spelled, err)
		}
		if !alg.IsChaotic() || alg.Base() != base {
			t.Errorf("ParseAlgorithm(%q) = %v (base %v)", spelled, alg, alg.Base())
		}
		if alg.String() != spelled {
			t.Errorf("%v.String() = %q, want %q", alg, alg.String(), spelled)
		}
	}
	if alg, err := ParseAlgorithm("  CHAOTIC(Grain) "); err != nil || alg != Chaotic(GRAIN) {
		t.Errorf("case/space-insensitive parse = %v, %v", alg, err)
	}
	for _, bad := range []string{"chaotic(", "chaotic()", "chaotic(nope)", "chaotic(chaotic(grain))"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
	if got := Chaotic(Chaotic(TRIVIUM)); got != Chaotic(TRIVIUM) {
		t.Errorf("Chaotic is not idempotent: %v", got)
	}
	if MICKEY.IsChaotic() || MICKEY.Base() != MICKEY {
		t.Error("plain algorithm misreports chaotic state")
	}
}

// The composition must actually transform the bytes — and do exactly
// what internal/chaotic.Post specifies: undoing it with the documented
// x_0 schedule must recover the base engine's segment.
func TestChaoticComposition(t *testing.T) {
	const seed = 5
	base := make([]byte, SegmentBytes)
	gb, err := NewGenerator(TRIVIUM, seed)
	if err != nil {
		t.Fatal(err)
	}
	gb.Read(base)

	post := make([]byte, SegmentBytes)
	gc, err := NewGenerator(Chaotic(TRIVIUM), seed)
	if err != nil {
		t.Fatal(err)
	}
	gc.Read(post)
	if bytes.Equal(base, post) {
		t.Fatal("chaotic mode did not change the stream")
	}

	var x0 [1]uint64
	deriveChaoticX0s(x0[:], seed, 0, 0, 0)
	chaotic.Unpost(post, x0[0])
	if !bytes.Equal(base, post) {
		t.Fatal("chaotic stream is not Post(base stream) under the documented x_0 schedule")
	}
}

// Distinct seeds and distinct base engines must give distinct chaotic
// streams, and the x_0 schedule must be domain-separated from the inner
// key material (different tweak constant ⇒ different draw).
func TestChaoticStreamsDecorrelated(t *testing.T) {
	read := func(alg Algorithm, seed uint64) []byte {
		g, err := NewGenerator(alg, seed)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 512)
		g.Read(b)
		return b
	}
	a := read(Chaotic(GRAIN), 1)
	if bytes.Equal(a, read(Chaotic(GRAIN), 2)) {
		t.Error("chaotic streams identical across seeds")
	}
	if bytes.Equal(a, read(Chaotic(MICKEY), 1)) {
		t.Error("chaotic streams identical across base engines")
	}
	var x0 [1]uint64
	deriveChaoticX0s(x0[:], 1, 0, 0, 0)
	sm := splitMix64{s: 1 ^ 0xD1342543DE82EF95*0}
	sm.next()
	if x0[0] == sm.next() {
		t.Error("x_0 schedule collides with inner key material schedule")
	}
}

// XORGENS is a first-class engine: its generator must be deterministic
// and distinct from every other engine.
func TestXorgensEngineStream(t *testing.T) {
	ref := make([]byte, 2*SegmentBytes)
	g, err := NewGenerator(XORGENS, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Read(ref)
	again, err := NewGenerator(XORGENS, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(ref))
	again.Read(got)
	if !bytes.Equal(got, ref) {
		t.Error("xorgens stream is not deterministic")
	}
	for _, other := range []Algorithm{MICKEY, GRAIN, AESCTR, TRIVIUM} {
		o, err := NewGenerator(other, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(ref))
		o.Read(got)
		if bytes.Equal(got, ref) {
			t.Errorf("xorgens stream identical to %v", other)
		}
	}
}
