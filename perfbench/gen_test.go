package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The same seed must give byte-identical inputs, and another seed other
// inputs, for every workload.
func TestInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(uint64) []byte{
		"serve-hot":  func(s uint64) []byte { return genHot(s).bytes() },
		"serve-cold": func(s uint64) []byte { return genCold(s).bytes() },
		"engine":     func(s uint64) []byte { return genEngine(s).bytes() },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 {
			t.Errorf("%s: empty input", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

func TestHotStreamRepeats(t *testing.T) {
	p := genHot(3)
	repeat, respelled := p.repeatShare(len(p.Stream))
	if repeat.Value() < 0.9 {
		t.Errorf("repeat share %.3f over %v requests, want >= 0.9", repeat.Value(), repeat.Base)
	}
	if v := respelled.Value(); v < 0.24 || v > 0.26 {
		t.Errorf("re-spelled share of repeats %.3f, want a quarter", v)
	}
	for _, q := range p.Stream[:1000] {
		body := p.body(q)
		var req map[string]any
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %s: %v", body, err)
		}
		k := p.Keys[q.Key]
		_, paper := aliases[k.Strategy]
		if q.Respell && paper {
			if req["algorithm"] != aliases[k.Strategy] || req["strategy"] != nil {
				t.Errorf("re-spelled body %s does not use the alias", body)
			}
		} else if req["strategy"] != k.Strategy {
			t.Errorf("body %s does not name strategy %s", body, k.Strategy)
		}
	}
}

func TestColdStreamIsFresh(t *testing.T) {
	p := genCold(3)
	seen := map[key]bool{}
	bySQL, pinned := 0, 0
	for i, q := range p.Stream {
		if seen[q.Key] {
			t.Fatalf("request %d repeats key %+v", i, q.Key)
		}
		seen[q.Key] = true
		if q.Replica != i%2 {
			t.Fatalf("request %d goes to replica %d", i, q.Replica)
		}
		if q.BySQL {
			bySQL++
		}
		if q.Key.Workload == coldPinned {
			pinned++
		}
		if !drawable(q.Key) {
			t.Fatalf("request %d: %+v is a point its heuristic gives up on", i, q.Key)
		}
		if q.Key.QA < 0 || q.Key.QA >= gridPoints(q.Key.Workload) {
			t.Fatalf("request %d: qa %d outside %s's grid", i, q.Key.QA, q.Key.Workload)
		}
	}
	if bySQL == 0 || pinned == 0 {
		t.Errorf("%d sql-addressed and %d pinned requests; want both", bySQL, pinned)
	}
	for _, w := range p.Tenants {
		if w == coldPinned {
			t.Errorf("pinned workload %s listed as a tenant", w)
		}
	}
}
