package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// msoFixture holds one small real-execution setup (the EQ query over
// generated data) shared by the engine-differential tests below.
type msoFixture struct {
	q        *query.Query
	store    *storage.Store
	space    *ess.Space
	compiled *core.Compiled
}

func buildMSOFixture(t *testing.T) *msoFixture {
	t.Helper()
	spec, err := workload.ByName("EQ")
	if err != nil {
		t.Fatal(err)
	}
	q, err := spec.Load(0.2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := datagen.Populate(q.Cat, datagen.Options{Seed: 2016, BuildIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.FromData(q.Cat, store, 24)
	if err != nil {
		t.Fatal(err)
	}
	space, err := ess.Build(q, optimizer.BuildEnv(q, st), cost.NewModel(cost.DefaultParams()), ess.Config{Res: 5})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &msoFixture{q: q, store: store, space: space, compiled: compiled}
}

// discoverReal runs one discovery over real executions with a fresh
// executor in the requested engine mode, optionally with armed faults.
func (f *msoFixture) discoverReal(t *testing.T, alg string, vectorized bool,
	mkFaults func() *faultinject.Injector) (*discovery.Outcome, error) {
	t.Helper()
	ex := exec.New(f.q, f.store, cost.DefaultParams()).Vectorized(vectorized)
	if mkFaults != nil {
		ex.WithFaults(mkFaults())
	}
	return f.compiled.NewRun().DiscoverStrategyWith(alg,
		discovery.NewResilient(NewRealEngine(f.space, ex), discovery.DefaultRetryPolicy))
}

// compareOutcomes asserts two discovery outcomes are bit-for-bit
// identical: same step trace (plans, budgets, exact costs, learned
// indices), same totals, and the same degradation ledger.
func compareOutcomes(t *testing.T, name string, tup, vec *discovery.Outcome) {
	t.Helper()
	if !reflect.DeepEqual(tup.Steps, vec.Steps) {
		t.Errorf("%s: step traces differ\n tuple: %+v\n  vec:  %+v", name, tup.Steps, vec.Steps)
	}
	if tup.TotalCost != vec.TotalCost || tup.WastedCost != vec.WastedCost {
		t.Errorf("%s: cost ledger differs: tuple (%.17g, %.17g) vec (%.17g, %.17g)",
			name, tup.TotalCost, tup.WastedCost, vec.TotalCost, vec.WastedCost)
	}
	if tup.Completed != vec.Completed || tup.Retries != vec.Retries || tup.AlignPenalty != vec.AlignPenalty {
		t.Errorf("%s: completed/retries/penalty differ: tuple (%v,%d,%g) vec (%v,%d,%g)",
			name, tup.Completed, tup.Retries, tup.AlignPenalty, vec.Completed, vec.Retries, vec.AlignPenalty)
	}
	if !reflect.DeepEqual(tup.Degradations, vec.Degradations) {
		t.Errorf("%s: degradations differ\n tuple: %+v\n  vec:  %+v", name, tup.Degradations, vec.Degradations)
	}
}

// TestDifferentialDiscoveryClean proves that a full discovery driven by
// the vectorized executor reproduces the tuple engine's outcome exactly
// — every step's cost, every learned selectivity index, and the total —
// for all three algorithms, with no faults armed. This is the MSO-level
// closure of the per-run differential suite in internal/exec: the
// discovery state machine only observes (Cost, Completed, JoinSel), all
// of which the batched engine reproduces bit for bit.
func TestDifferentialDiscoveryClean(t *testing.T) {
	f := buildMSOFixture(t)
	for _, alg := range []string{core.PlanBouquet, core.SpillBound, core.AlignedBound} {
		tup, errT := f.discoverReal(t, alg, false, nil)
		vec, errV := f.discoverReal(t, alg, true, nil)
		if errT != nil || errV != nil {
			t.Fatalf("alg %v: tuple err %v, vec err %v", alg, errT, errV)
		}
		compareOutcomes(t, alg, tup, vec)
		if len(tup.Degradations) != 0 {
			t.Errorf("%s: clean run took degradations: %+v", alg, tup.Degradations)
		}
	}
}

// TestDifferentialDiscoveryChaos replays full discoveries under
// deterministic fault schedules (kills, dropped observations, panics,
// latency) through both engines. Armed faults force the vectorized
// executor into lockstep mode, so the injector's site/sequence stream —
// and therefore every retry, degradation, and wasted-cost entry the
// resilient driver records — must match the tuple engine exactly.
func TestDifferentialDiscoveryChaos(t *testing.T) {
	f := buildMSOFixture(t)
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.02,
		faultinject.SiteIndexProbe:    0.05,
		faultinject.SiteOperatorPanic: 0.01,
		faultinject.SiteSpillObs:      0.20,
		faultinject.SiteLatency:       0.05,
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, pf := range []float64{0, 1} {
			mk := func() *faultinject.Injector {
				return faultinject.New(faultinject.Config{
					Seed: seed, Rates: rates, PersistentFrac: pf, MaxPerSite: 2,
				})
			}
			for _, alg := range []string{core.SpillBound, core.AlignedBound} {
				tup, errT := f.discoverReal(t, alg, false, mk)
				vec, errV := f.discoverReal(t, alg, true, mk)
				if (errT == nil) != (errV == nil) ||
					(errT != nil && errV != nil && errT.Error() != errV.Error()) {
					t.Fatalf("seed %d pf %g alg %v: errors diverge: tuple %v, vec %v",
						seed, pf, alg, errT, errV)
				}
				if errT != nil {
					continue
				}
				compareOutcomes(t, alg+"-seed"+string(rune('0'+seed)), tup, vec)
			}
		}
	}
}
