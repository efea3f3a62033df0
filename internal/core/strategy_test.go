package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/alignedbound"
	"repro/internal/core/bouquet"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/faultinject"
	"repro/internal/testutil"
)

func TestStrategyRegistry(t *testing.T) {
	want := []string{
		"planbouquet", "spillbound", "alignedbound",
		"parqo", "robustmap", "adaptiveswitch",
	}
	if got := Strategies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for _, name := range []string{"spillbound", "SpillBound", "PARQO"} {
		if _, ok := StrategyByName(name); !ok {
			t.Fatalf("StrategyByName(%q) not found", name)
		}
	}
	if _, ok := StrategyByName("zzz"); ok {
		t.Fatal("unknown strategy resolved")
	}
}

// directPaperRun calls a paper algorithm's own package entry point on
// c.Source behind the engine stack and ledger epilogue DiscoverStrategy
// builds, without going through the registry.
func directPaperRun(c *Compiled, name string, qa int32, in *faultinject.Injector) (*discovery.Outcome, error) {
	sim := discovery.NewSimEngine(c.Source, qa)
	var eng discovery.Engine = sim
	var res *discovery.Resilient
	if in != nil {
		res = discovery.NewResilient(discovery.NewFaultySim(sim, in), discovery.DefaultRetryPolicy).
			WithJitter(in.Jitter)
		eng = res
	}
	var out *discovery.Outcome
	var err error
	switch name {
	case PlanBouquet:
		out, err = bouquet.Run(c.Source, c.Reduction(), eng)
	case SpillBound:
		out, err = spillbound.Run(c.Source, eng)
	case AlignedBound:
		var pen float64
		out, pen, err = alignedbound.Run(c.Source, c.Planner(), eng)
		if out != nil {
			out.AlignPenalty = pen
		}
	}
	if res != nil && out != nil {
		degs, retries, wasted := res.Take()
		out.Degradations = append(out.Degradations, degs...)
		out.Retries += retries
		out.WastedCost += wasted
	}
	return out, err
}

// The paper algorithms behind Strategy must produce deep-equal Outcomes
// vs. their own drivers called directly — clean and under an identical
// chaos schedule.
func TestPaperStrategiesMatchAlgorithms(t *testing.T) {
	s := testutil.Space2D(t, 8)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.Config{
		Seed: 77,
		Rates: map[faultinject.Site]float64{
			faultinject.SiteEngineFull:  0.15,
			faultinject.SiteEngineSpill: 0.15,
			faultinject.SiteSpillObs:    0.10,
			faultinject.SiteLatency:     0.20,
		},
	}
	for _, name := range paperStrategies {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 5 {
			want, werr := directPaperRun(c, name, qa, nil)
			got, gerr := c.NewRun().DiscoverStrategy(name, qa)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s qa=%d: errors diverge: %v vs %v", name, qa, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s qa=%d: clean strategy outcome diverges\n got %+v\nwant %+v", name, qa, got, want)
			}
			want, werr = directPaperRun(c, name, qa, faultinject.New(chaos))
			got, gerr = c.NewRun().WithFaults(faultinject.New(chaos)).DiscoverStrategy(name, qa)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s qa=%d: chaos errors diverge: %v vs %v", name, qa, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s qa=%d: chaos strategy outcome diverges", name, qa)
			}
		}
	}
}

// Every registered strategy must complete every instance of a clean 2-D
// workload, bill at least the optimal cost, and be deterministic run to
// run.
func TestAllStrategiesCompleteClean(t *testing.T) {
	s := testutil.Space2D(t, 10)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Strategies() {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 7 {
			out, err := c.NewRun().DiscoverStrategy(name, qa)
			if err != nil {
				t.Fatalf("%s qa=%d: %v", name, qa, err)
			}
			if !out.Completed {
				t.Fatalf("%s qa=%d: not completed", name, qa)
			}
			if out.TotalCost < s.PointCost[qa]-1e-9 {
				t.Fatalf("%s qa=%d: bill %v below optimal %v", name, qa, out.TotalCost, s.PointCost[qa])
			}
			again, err := c.NewRun().DiscoverStrategy(name, qa)
			if err != nil {
				t.Fatalf("%s qa=%d rerun: %v", name, qa, err)
			}
			if !reflect.DeepEqual(out, again) {
				t.Fatalf("%s qa=%d: nondeterministic outcome", name, qa)
			}
		}
	}
}

// The heuristic strategies must stay deterministic under a fixed chaos
// schedule and keep the degradation ledger consistent.
func TestNewStrategiesChaosDeterminism(t *testing.T) {
	s := testutil.Space2D(t, 8)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.Config{
		Seed: 40916,
		Rates: map[faultinject.Site]float64{
			faultinject.SiteEngineFull:  0.15,
			faultinject.SiteEngineSpill: 0.15,
			faultinject.SiteSpillObs:    0.10,
			faultinject.SiteLatency:     0.20,
		},
	}
	for _, name := range []string{"parqo", "robustmap", "adaptiveswitch"} {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 9 {
			a, aerr := c.NewRun().WithFaults(faultinject.New(chaos)).DiscoverStrategy(name, qa)
			b, berr := c.NewRun().WithFaults(faultinject.New(chaos)).DiscoverStrategy(name, qa)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s qa=%d: chaos errors diverge: %v vs %v", name, qa, aerr, berr)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s qa=%d: chaos outcome nondeterministic", name, qa)
			}
			if aerr != nil {
				continue
			}
			nRetry := 0
			for _, d := range a.Degradations {
				if d.Kind == "retry" {
					nRetry++
				}
			}
			if nRetry != a.Retries {
				t.Fatalf("%s qa=%d: %d retry degradations but Retries=%d", name, qa, nRetry, a.Retries)
			}
			if a.WastedCost > a.TotalCost {
				t.Fatalf("%s qa=%d: wasted %v exceeds total %v", name, qa, a.WastedCost, a.TotalCost)
			}
		}
	}
}

func TestStrategyGuarantees(t *testing.T) {
	s := testutil.Space2D(t, 10)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := bouquet.Guarantee(c.Reduction())
	if g, ok := c.StrategyGuarantee(PlanBouquet); !ok || g != want {
		t.Fatalf("PB guarantee %v (ok %v), want %v", g, ok, want)
	}
	for _, name := range []string{"parqo", "robustmap", "adaptiveswitch"} {
		if g, ok := c.StrategyGuarantee(name); ok {
			t.Fatalf("%s: unexpected guarantee %v", name, g)
		}
	}
}

func TestDiscoverStrategyUnknown(t *testing.T) {
	s := testutil.Space2D(t, 8)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, derr := c.NewRun().DiscoverStrategy("zzz", 0)
	if derr == nil || !strings.Contains(derr.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy error = %v", derr)
	}
	if perr := c.PrepareStrategy("zzz"); perr == nil {
		t.Fatal("PrepareStrategy must reject unknown names")
	}
	if perr := c.PrepareStrategy("parqo"); perr != nil {
		t.Fatalf("PrepareStrategy(parqo): %v", perr)
	}
}
