package core

import (
	"testing"

	"repro/internal/mso"
	"repro/internal/testutil"
)

var paperStrategies = []string{PlanBouquet, SpillBound, AlignedBound}

// TestSessionGuarantees checks the paper guarantees a compiled query
// reports: D²+3D for SpillBound, the upper end of [2D+2, D²+3D] for
// AlignedBound, a positive bound for PlanBouquet, and none for an
// unknown name.
func TestSessionGuarantees(t *testing.T) {
	s := testutil.Space2D(t, 10)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sb, ok := c.StrategyGuarantee(SpillBound); !ok || sb != 10 {
		t.Fatalf("SB guarantee = %v, %v", sb, ok)
	}
	if pb, ok := c.StrategyGuarantee(PlanBouquet); !ok || pb <= 0 {
		t.Fatalf("PB guarantee = %v, %v", pb, ok)
	}
	if ab, ok := c.StrategyGuarantee(AlignedBound); !ok || ab != 10 {
		t.Fatalf("AB guarantee (upper) = %v, %v", ab, ok)
	}
	if _, ok := c.StrategyGuarantee("zzz"); ok {
		t.Fatal("unknown strategy should have no guarantee")
	}
}

func TestDiscoverPaperStrategies(t *testing.T) {
	s := testutil.Space2D(t, 10)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qa := int32(s.Grid.Linear([]int{6, 5}))
	for _, name := range paperStrategies {
		out, err := c.NewRun().DiscoverStrategy(name, qa)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Completed {
			t.Fatalf("%s: not completed", name)
		}
		g, _ := c.StrategyGuarantee(name)
		if so := out.SubOpt(s.PointCost[qa]); so > g*3 {
			t.Errorf("%s: sub-opt %v far above guarantee %v", name, so, g)
		}
	}
}

func TestCompiledMSOOrdering(t *testing.T) {
	s := testutil.Space2D(t, 10)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.MSO(PlanBouquet, mso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.MSO(SpillBound, mso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := c.MSO(AlignedBound, mso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	native := c.NativeWorstCaseMSO(mso.Options{})
	if native.MSO < sb.MSO {
		t.Errorf("native (%v) should dominate SB (%v)", native.MSO, sb.MSO)
	}
	if sb.MSO > pb.MSO*1.05 {
		t.Errorf("SB MSOe (%v) should not exceed PB's (%v)", sb.MSO, pb.MSO)
	}
	if ab.MSO <= 0 {
		t.Error("AB MSOe must be positive")
	}
	if ab.MaxAlignPenalty < 1 {
		t.Errorf("MaxAlignPenalty = %v after AB sweep", ab.MaxAlignPenalty)
	}
	if _, err := c.MSO("zzz", mso.Options{}); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

func TestSetLambda(t *testing.T) {
	s := testutil.Space2D(t, 8)
	c, err := Compile(s, CompileOptions{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if red := c.Reduction(); red.Lambda != 0.5 {
		t.Fatalf("lambda = %v", red.Lambda)
	}
	if c, err = Compile(s, CompileOptions{}); err != nil || c.Reduction().Lambda != DefaultLambda {
		t.Fatalf("zero lambda must mean DefaultLambda (err %v)", err)
	}
	if _, err := Compile(s, CompileOptions{Lambda: -0.5}); err == nil {
		t.Fatal("negative lambda should error")
	}
}

// A run's penalty ledger starts empty and records π* ≥ 1 once
// AlignedBound has run on it.
func TestMaxPenaltyZeroBeforeABRuns(t *testing.T) {
	s := testutil.Space2D(t, 8)
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := c.NewRun()
	if r.MaxPenalty() != 0 {
		t.Fatal("MaxPenalty should start at 0")
	}
	for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 7 {
		if _, err := r.DiscoverStrategy(AlignedBound, qa); err != nil {
			t.Fatal(err)
		}
	}
	if r.MaxPenalty() < 1 {
		t.Errorf("MaxPenalty = %v after AB runs", r.MaxPenalty())
	}
}
