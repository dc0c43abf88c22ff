package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// opsOf lists the first n operations of every client.
func opsOf(p plan, n int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		for i := 0; i < n; i++ {
			out[c] = append(out[c], p.op(c, i))
		}
	}
	return out
}

func TestPlansAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := newPlan(w, 42), newPlan(w, 42)
		if a.nodeSeed != b.nodeSeed || !reflect.DeepEqual(opsOf(a, 50), opsOf(b, 50)) {
			t.Errorf("%s: two plans from seed 42 differ", w.name)
		}
	}
}

func TestPlansDifferAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		a, b := newPlan(w, 1), newPlan(w, 2)
		if a.nodeSeed == b.nodeSeed {
			t.Errorf("%s: seeds 1 and 2 give the same node seed", w.name)
		}
	}
	w, _ := findWorkload("small-mixed")
	if reflect.DeepEqual(opsOf(newPlan(w, 1), 12), opsOf(newPlan(w, 2), 12)) {
		t.Error("small-mixed: seeds 1 and 2 give the same request order")
	}
}

func TestSmallMixedRotatesOverEveryServedFamily(t *testing.T) {
	w, _ := findWorkload("small-mixed")
	p := newPlan(w, 9)
	n := len(core.ServedAlgorithms)
	for c := 0; c < clients; c++ {
		for round := 0; round < 5; round++ {
			seen := map[core.Algorithm]bool{}
			for i := round * n; i < (round+1)*n; i++ {
				o := p.op(c, i)
				if o.kind != opBytes || o.n != smallBytes {
					t.Fatalf("client %d op %d = %+v, want a 4 KiB /bytes", c, i, o)
				}
				seen[o.alg] = true
			}
			if len(seen) != n {
				t.Errorf("client %d round %d draws %d distinct families, want %d", c, round, len(seen), n)
			}
		}
	}
	if reflect.DeepEqual(opsOf(p, 4*n)[0], opsOf(p, 4*n)[1]) {
		t.Error("both clients draw the same sequence")
	}
}
