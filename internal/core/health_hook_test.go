package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/health"
)

// A clean stream under a real checker must deliver its canonical bytes:
// the hook only observes, never perturbs, healthy output.
func TestHealthHookTransparentOnHealthyStream(t *testing.T) {
	checker := health.NewChecker(health.Config{})
	withHook, err := NewStream(MICKEY, 42, StreamConfig{
		Workers: 2, StagingBytes: 2048, Health: checker.Check,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer withHook.Close()
	plain, err := NewStream(MICKEY, 42, StreamConfig{Workers: 2, StagingBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	a := make([]byte, 16*SegmentBytes)
	b := make([]byte, 16*SegmentBytes)
	withHook.Read(a)
	plain.Read(b)
	if !bytes.Equal(a, b) {
		t.Fatal("health hook changed the bytes of a healthy stream")
	}
	st := withHook.Stats()
	if st.HealthFailures != 0 || st.EngineReseeds != 0 || st.HealthUnrecovered != 0 {
		t.Fatalf("healthy stream recorded health events: %+v", st)
	}
	if cs := checker.Stats(); cs.Segments == 0 {
		t.Fatal("checker never ran")
	}
}

// A corrupted segment must be condemned, the engine reseeded, and the
// delivered replacement must pass the checker — and the whole episode
// must be deterministic: two identically-faulted streams emit identical
// bytes.
func TestHealthHookDiscardsAndReseeds(t *testing.T) {
	checker := health.NewChecker(health.Config{})
	// Hook that zeroes the Nth checked segment before checking — a
	// deterministic stand-in for an engine fault.
	corruptingHook := func(nth uint64) func([]byte) error {
		var n atomic.Uint64
		return func(seg []byte) error {
			if n.Add(1) == nth {
				for i := range seg {
					seg[i] = 0
				}
			}
			return checker.Check(seg)
		}
	}

	run := func() ([]byte, StreamStats) {
		s, err := NewStream(GRAIN, 7, StreamConfig{
			Workers: 1, StagingBytes: 2048, Health: corruptingHook(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make([]byte, 8*SegmentBytes)
		if _, err := s.Read(out); err != nil {
			t.Fatal(err)
		}
		return out, s.Stats()
	}

	got, st := run()
	if st.HealthFailures != 1 {
		t.Fatalf("HealthFailures = %d, want 1", st.HealthFailures)
	}
	if st.EngineReseeds != 1 {
		t.Fatalf("EngineReseeds = %d, want 1", st.EngineReseeds)
	}
	if st.HealthUnrecovered != 0 {
		t.Fatalf("HealthUnrecovered = %d, want 0", st.HealthUnrecovered)
	}

	// No delivered segment may be the zeroed one.
	zero := make([]byte, SegmentBytes)
	for off := 0; off < len(got); off += SegmentBytes {
		if bytes.Equal(got[off:off+SegmentBytes], zero) {
			t.Fatalf("zeroed segment at offset %d was delivered", off)
		}
	}

	// The first two segments are canonical; segment 3 onward comes from
	// the reseeded (epoch-1) engine and must diverge from the canonical
	// stream.
	ref, err := NewStream(GRAIN, 7, StreamConfig{Workers: 1, StagingBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]byte, 8*SegmentBytes)
	ref.Read(want)
	if !bytes.Equal(got[:2*SegmentBytes], want[:2*SegmentBytes]) {
		t.Fatal("pre-fault segments diverge from the canonical stream")
	}
	if bytes.Equal(got[2*SegmentBytes:3*SegmentBytes], want[2*SegmentBytes:3*SegmentBytes]) {
		t.Fatal("condemned segment slot was not regenerated from fresh material")
	}

	// Reproducibility: the identical fault yields identical bytes.
	got2, _ := run()
	if !bytes.Equal(got, got2) {
		t.Fatal("identically-faulted streams diverged")
	}
}

// The core.segment.corrupt failpoint drives the same loop without a
// corrupting hook: armed on the Nth produced segment, it must trip the
// checker and be healed by a reseed.
func TestFailpointSegmentCorrupt(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(FailpointSegmentCorrupt, 2)

	checker := health.NewChecker(health.Config{})
	s, err := NewStream(TRIVIUM, 99, StreamConfig{
		Workers: 1, StagingBytes: 2048, Health: checker.Check,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := make([]byte, 6*SegmentBytes)
	if _, err := s.Read(out); err != nil {
		t.Fatal(err)
	}
	if got := faultinject.Fired(FailpointSegmentCorrupt); got != 1 {
		t.Fatalf("failpoint fired %d times, want 1", got)
	}
	st := s.Stats()
	if st.HealthFailures != 1 || st.EngineReseeds != 1 {
		t.Fatalf("stats %+v, want exactly one failure and one reseed", st)
	}
	zero := make([]byte, SegmentBytes)
	for off := 0; off < len(out); off += SegmentBytes {
		if bytes.Equal(out[off:off+SegmentBytes], zero) {
			t.Fatalf("zeroed segment delivered at offset %d", off)
		}
	}
	if cs := checker.Stats(); cs.Failures[health.RCT]+cs.Failures[health.Monobit]+cs.Failures[health.LongRun] == 0 {
		t.Fatalf("checker did not attribute the corruption: %+v", cs)
	}
}

// A hook that condemns everything must exhaust the reseed budget and
// surface HealthUnrecovered instead of livelocking the workers.
func TestHealthHookUnrecoverableBudget(t *testing.T) {
	reject := errors.New("always bad")
	s, err := NewStream(MICKEY, 5, StreamConfig{
		Workers: 1, StagingBytes: 2048,
		Health: func([]byte) error { return reject },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := make([]byte, 2*SegmentBytes)
	if _, err := s.Read(out); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.HealthUnrecovered == 0 {
		t.Fatal("unrecoverable hook never surfaced in HealthUnrecovered")
	}
	if st.HealthFailures < st.HealthUnrecovered*(maxHealthReseeds+1) {
		t.Fatalf("stats %+v: expected %d failures per unrecovered segment", st, maxHealthReseeds+1)
	}
}

// Satellite gate: the first 64 segments of every algorithm must pass the
// default online health tests, so an engine regression that degrades
// output quality fails tier-1 fast.
func TestHealthGateAllAlgorithms(t *testing.T) {
	const segments = 64
	for _, alg := range Algorithms {
		checker := health.NewChecker(health.Config{})
		g, err := NewGenerator(alg, 1234)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		seg := make([]byte, SegmentBytes)
		for i := 0; i < segments; i++ {
			if _, err := g.Read(seg); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if err := checker.Check(seg); err != nil {
				t.Errorf("%v segment %d: %v", alg, i, err)
			}
		}
		if st := checker.Stats(); st.Segments != segments || st.Total() != 0 {
			t.Errorf("%v: checker stats %+v", alg, st)
		}
	}
}
