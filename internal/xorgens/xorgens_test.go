package xorgens

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/health"
)

func testMaterial(fill byte) (key, iv []byte) {
	key = make([]byte, KeySize)
	iv = make([]byte, IVSize)
	for i := range key {
		key[i] = fill + byte(i)
	}
	for i := range iv {
		iv[i] = fill ^ byte(0xA5+i)
	}
	return key, iv
}

func TestRefDeterminism(t *testing.T) {
	key, iv := testMaterial(7)
	g1, err := NewRef(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewRef(key, iv)
	a := make([]byte, 256)
	b := make([]byte, 256)
	g1.Keystream(a)
	g2.Keystream(b)
	if !bytes.Equal(a, b) {
		t.Fatal("same material diverged")
	}
	key2, iv2 := testMaterial(8)
	g3, _ := NewRef(key2, iv2)
	c := make([]byte, 256)
	g3.Keystream(c)
	if bytes.Equal(a, c) {
		t.Fatal("different material produced identical output")
	}
}

// A single flipped key or IV bit must change the keystream (the digest
// folds every material byte).
func TestRefMaterialSensitivity(t *testing.T) {
	key, iv := testMaterial(1)
	base, _ := NewRef(key, iv)
	want := make([]byte, 64)
	base.Keystream(want)
	for _, mutate := range []struct {
		name string
		buf  []byte
		at   int
	}{
		{"key first", key, 0},
		{"key last", key, KeySize - 1},
		{"iv first", iv, 0},
		{"iv last", iv, IVSize - 1},
	} {
		mutate.buf[mutate.at] ^= 0x01
		g, err := NewRef(key, iv)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 64)
		g.Keystream(got)
		mutate.buf[mutate.at] ^= 0x01
		if bytes.Equal(got, want) {
			t.Errorf("%s byte flip did not change the keystream", mutate.name)
		}
	}
}

func TestRefRejectsBadMaterial(t *testing.T) {
	key, iv := testMaterial(3)
	if _, err := NewRef(key[:KeySize-1], iv); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewRef(key, iv[:IVSize-1]); err == nil {
		t.Error("short iv accepted")
	}
}

func TestRefKeystreamAlignment(t *testing.T) {
	key, iv := testMaterial(4)
	g, _ := NewRef(key, iv)
	defer func() {
		if recover() == nil {
			t.Error("unaligned keystream length accepted")
		}
	}()
	g.Keystream(make([]byte, 7))
}

// Golden keystream: pins the scalar reference (and with it, through the
// differential suite, every lane) to fixed bytes, so an
// accidental recurrence or expansion change cannot land silently.
func TestRefGolden(t *testing.T) {
	key := make([]byte, KeySize)
	iv := make([]byte, IVSize)
	for i := range key {
		key[i] = byte(i)
	}
	for i := range iv {
		iv[i] = byte(0xF0 + i)
	}
	g, err := NewRef(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	g.Keystream(got)
	const want = "d8a918f69b77d29365820414f8f993da22ec76b6e69a214057e99d0eb96767b8"
	if hex.EncodeToString(got) != want {
		t.Fatalf("golden keystream changed:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

// An all-zero key and IV must still produce healthy output: the
// expansion digests material through splitmix64, so there is no weak
// all-zero state (the reason the omitted Weyl tempering is not needed
// here).
func TestZeroMaterialIsHealthy(t *testing.T) {
	g, err := NewRef(make([]byte, KeySize), make([]byte, IVSize))
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, 2048)
	checker := health.NewChecker(health.Config{})
	for i := 0; i < 16; i++ {
		g.Keystream(seg)
		if err := checker.Check(seg); err != nil {
			t.Fatalf("segment %d unhealthy: %v", i, err)
		}
	}
}

// The recurrence must actually cycle the whole ring: 2r consecutive
// words from disjoint ring slots should never repeat.
func TestNoShortCycle(t *testing.T) {
	key, iv := testMaterial(9)
	g, _ := NewRef(key, iv)
	seen := make(map[uint64]int, 2*r)
	for i := 0; i < 2*r; i++ {
		w := g.NextWord()
		if j, dup := seen[w]; dup {
			t.Fatalf("word %d repeats word %d (%#x)", i, j, w)
		}
		seen[w] = i
	}
}
