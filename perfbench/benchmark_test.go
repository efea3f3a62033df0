package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json, at the repository root, must list exactly the metrics
// the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", b.PerLayer, perLayer)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
}
