package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, m := range endToEndUnits {
		check("end-to-end metric", m.name)
	}
	for _, m := range perLayerUnits {
		check("per-layer metric", m.name)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json
// declaration in step with what the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, ds []decl, ms []metric) {
		if len(ds) != len(ms) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code prints %d", kind, len(ds), len(ms))
		}
		for i, d := range ds {
			if d.Name != ms[i].name || d.Unit != ms[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, d.Name, d.Unit, ms[i].name, ms[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndUnits)
	same("per_layer", doc.PerLayer, perLayerUnits)
}
