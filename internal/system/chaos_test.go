package system

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// chaosConfig arms four fault types at nonzero rates: full-execution
// aborts, spill-execution aborts, lost spill observations, and latency
// drift. All faults are transient (PersistentFrac 0) so the resilient
// driver's retries can clear them.
func chaosConfig(seed uint64) faultinject.Config {
	return faultinject.Config{
		Seed: seed,
		Rates: map[faultinject.Site]float64{
			faultinject.SiteEngineFull:  0.15,
			faultinject.SiteEngineSpill: 0.15,
			faultinject.SiteSpillObs:    0.10,
			faultinject.SiteLatency:     0.20,
		},
	}
}

// resultShape is a Step minus its cost: the discovery-relevant outcome
// of one execution. Transient faults inflate cost (retries, drift) but
// must never change the shape.
type resultShape struct {
	Contour    int
	PlanID     int32
	Dim        int
	Budget     float64
	Completed  bool
	Phase      discovery.Phase
	LearnedIdx int
}

func shapes(out *discovery.Outcome) []resultShape {
	s := make([]resultShape, len(out.Steps))
	for i, st := range out.Steps {
		s[i] = resultShape{
			Contour: st.Contour, PlanID: st.PlanID, Dim: st.Dim,
			Budget: st.Budget, Completed: st.Completed,
			Phase: st.Phase, LearnedIdx: st.LearnedIdx,
		}
	}
	return s
}

var chaosAlgs = []string{core.PlanBouquet, core.SpillBound, core.AlignedBound}

func compile(t *testing.T, s *ess.Space) *core.Compiled {
	t.Helper()
	c, err := core.Compile(s, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The same chaos seed must reproduce the identical fault schedule,
// execution trace, cost ledger, and degradation record — run to run.
func TestChaosSameSeedIdenticalRuns(t *testing.T) {
	s := buildRandomSpace(t, 3, 4, 2, 6)
	c := compile(t, s)
	for _, alg := range chaosAlgs {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 7 {
			type run struct {
				out   *discovery.Outcome
				err   error
				fired []faultinject.Fault
			}
			var runs [2]run
			for i := range runs {
				in := faultinject.New(chaosConfig(2016))
				out, err := c.NewRun().WithFaults(in).DiscoverStrategy(alg, qa)
				runs[i] = run{out: out, err: err, fired: in.Fired()}
			}
			a, b := runs[0], runs[1]
			if (a.err == nil) != (b.err == nil) {
				t.Fatalf("%s qa=%d: errors diverge: %v vs %v", alg, qa, a.err, b.err)
			}
			if !reflect.DeepEqual(a.fired, b.fired) {
				t.Fatalf("%s qa=%d: fault schedules diverge:\n%v\n%v", alg, qa, a.fired, b.fired)
			}
			if !reflect.DeepEqual(a.out.Steps, b.out.Steps) {
				t.Fatalf("%s qa=%d: traces diverge", alg, qa)
			}
			if !reflect.DeepEqual(a.out.Degradations, b.out.Degradations) {
				t.Fatalf("%s qa=%d: degradations diverge:\n%v\n%v",
					alg, qa, a.out.Degradations, b.out.Degradations)
			}
			if a.out.TotalCost != b.out.TotalCost ||
				a.out.Retries != b.out.Retries || a.out.WastedCost != b.out.WastedCost {
				t.Fatalf("%s qa=%d: ledgers diverge: (%v,%d,%v) vs (%v,%d,%v)", alg, qa,
					a.out.TotalCost, a.out.Retries, a.out.WastedCost,
					b.out.TotalCost, b.out.Retries, b.out.WastedCost)
			}
		}
	}
}

// Transient faults must be invisible in the discovery result: the trace
// shape (what completed, what was learned, in which order) matches the
// fault-free run bit for bit, and the bill is never below the
// fault-free bill — robustness is paid for, not free.
func TestChaosTransientFaultsPreserveResults(t *testing.T) {
	s := buildRandomSpace(t, 5, 4, 2, 6)
	c := compile(t, s)
	for _, alg := range chaosAlgs {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 5 {
			want, err := c.NewRun().DiscoverStrategy(alg, qa)
			if err != nil {
				t.Fatalf("%s qa=%d fault-free: %v", alg, qa, err)
			}
			in := faultinject.New(chaosConfig(uint64(qa)*1000 + 1))
			got, err := c.NewRun().WithFaults(in).DiscoverStrategy(alg, qa)
			if err != nil {
				t.Fatalf("%s qa=%d chaos: %v (faults %d)", alg, qa, err, in.Count())
			}
			if !reflect.DeepEqual(shapes(got), shapes(want)) {
				t.Fatalf("%s qa=%d: chaos trace shape diverges from fault-free\nchaos: %+v\nclean: %+v",
					alg, qa, shapes(got), shapes(want))
			}
			if got.TotalCost < want.TotalCost-1e-9 {
				t.Fatalf("%s qa=%d: chaos bill %v below fault-free %v",
					alg, qa, got.TotalCost, want.TotalCost)
			}
			if got.WastedCost > got.TotalCost {
				t.Fatalf("%s qa=%d: wasted %v exceeds total %v", alg, qa, got.WastedCost, got.TotalCost)
			}
			nRetry := 0
			for _, d := range got.Degradations {
				if d.Kind == "retry" {
					nRetry++
				}
			}
			if nRetry != got.Retries {
				t.Fatalf("%s qa=%d: %d retry degradations but Retries=%d", alg, qa, nRetry, got.Retries)
			}
		}
	}
}

// A faulted alignment planner degrades AlignedBound to SpillBound, the
// fallback is stamped on the Outcome, and the run still completes.
func TestChaosAlignmentFallback(t *testing.T) {
	s := buildRandomSpace(t, 3, 4, 2, 6)
	c := compile(t, s)
	in := faultinject.New(faultinject.Config{
		Seed:           9,
		Rates:          map[faultinject.Site]float64{faultinject.SiteAlignPlanner: 1},
		PersistentFrac: 1,
	})
	qa := int32(s.Grid.NumPoints() / 2)
	out, err := c.NewRun().WithFaults(in).DiscoverStrategy(core.AlignedBound, qa)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if !out.Completed {
		t.Fatal("fallback run must complete")
	}
	found := false
	for _, d := range out.Degradations {
		if d.Kind == "alignment-fallback" {
			found = true
		}
	}
	if !found {
		t.Fatalf("alignment-fallback not recorded: %+v", out.Degradations)
	}
	// The degraded run matches plain SpillBound's trace on this instance.
	want, err := c.NewRun().DiscoverStrategy(core.SpillBound, qa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shapes(out), shapes(want)) {
		t.Fatal("fallback trace does not match SpillBound")
	}
}

// Hammer the real row-level executor under uniform chaos (scan faults,
// index faults, operator panics, dropped observations, drift): no panic
// may escape, every failure must be a typed *exec.OperatorError, and
// successful runs must still produce the fault-free row count.
func TestChaosRealExecutorNoEscapedPanics(t *testing.T) {
	cat, err := catalog.TPCDS(0.05)
	if err != nil {
		t.Fatal(err)
	}
	store, err := datagen.Populate(cat, datagen.Options{Seed: 4242, BuildIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.FromData(cat, store, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(cost.DefaultParams())
	failures := 0
	runs := 0
	for seed := uint64(70); seed <= 78; seed++ {
		q, err := testutil.RandomQuery(seed, cat, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := optimizer.BuildEnv(q, st)
		best := optimizer.New(q, model).Best(env)
		if best == nil || best.Rows > 2e5 {
			continue
		}
		clean, err := exec.New(q, store, cost.DefaultParams()).Run(best.Root, 0)
		if err != nil {
			t.Fatalf("seed %d fault-free: %v", seed, err)
		}
		for chaos := uint64(0); chaos < 6; chaos++ {
			runs++
			in := faultinject.NewUniform(seed*100+chaos, 0.02)
			e := exec.New(q, store, cost.DefaultParams()).WithFaults(in)
			res, err := e.Run(best.Root, 0) // a panic here fails the test by itself
			if err != nil {
				failures++
				var oe *exec.OperatorError
				if !errors.As(err, &oe) {
					t.Fatalf("seed %d chaos %d: untyped failure %T: %v", seed, chaos, err, err)
				}
				continue
			}
			if res.Rows != clean.Rows {
				t.Fatalf("seed %d chaos %d: %d rows, fault-free %d", seed, chaos, res.Rows, clean.Rows)
			}
			if res.Cost < clean.Cost-1e-9 {
				t.Fatalf("seed %d chaos %d: chaos bill %v below fault-free %v",
					seed, chaos, res.Cost, clean.Cost)
			}
		}
	}
	if runs < 12 {
		t.Fatalf("only %d chaos runs executed; fixture too restrictive", runs)
	}
	if failures == 0 {
		t.Log("note: no chaos run failed terminally (all faults retried away)")
	}
}

// Drift-only chaos (no aborts) must reproduce every completion decision
// while strictly inflating cost on runs where the latency site fired.
func TestChaosDriftNeverChangesDecisions(t *testing.T) {
	s := buildRandomSpace(t, 7, 4, 2, 6)
	c := compile(t, s)
	for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 3 {
		want, err := c.NewRun().DiscoverStrategy(core.SpillBound, qa)
		if err != nil {
			t.Fatal(err)
		}
		in := faultinject.New(faultinject.Config{
			Seed:  uint64(qa) + 99,
			Rates: map[faultinject.Site]float64{faultinject.SiteLatency: 0.5},
		})
		got, err := c.NewRun().WithFaults(in).DiscoverStrategy(core.SpillBound, qa)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shapes(got), shapes(want)) {
			t.Fatalf("qa=%d: drift changed the trace shape", qa)
		}
		if in.Count() > 0 && got.TotalCost <= want.TotalCost {
			t.Fatalf("qa=%d: %d drift events but bill %v not above fault-free %v",
				qa, in.Count(), got.TotalCost, want.TotalCost)
		}
		if math.IsNaN(got.TotalCost) || math.IsInf(got.TotalCost, 0) {
			t.Fatalf("qa=%d: non-finite bill", qa)
		}
	}
}
