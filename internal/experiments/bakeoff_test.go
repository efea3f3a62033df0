package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/workload"
)

func bakeoffFixture(t *testing.T) *BakeoffResult {
	t.Helper()
	h := New(Options{Res: 5})
	res, err := h.BakeoffFor("EQ", BakeoffOptions{ChaosSeed: 2016, ChaosRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The bake-off must produce one row per registered strategy, paper
// guarantees on the paper rows only, and sane ledgers.
func TestBakeoffSixRows(t *testing.T) {
	res := bakeoffFixture(t)
	names := core.Strategies()
	if len(res.Rows) != len(names) || len(res.Rows) != 6 {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(names))
	}
	for i, row := range res.Rows {
		if row.Strategy != names[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Strategy, names[i])
		}
		paper := i < 3
		if row.HasGuarantee != paper {
			t.Fatalf("%s: HasGuarantee=%v", row.Strategy, row.HasGuarantee)
		}
		if row.MSOe < 1 || row.ASO < 1 || row.ASO > row.MSOe {
			t.Fatalf("%s: implausible MSOe %v / ASO %v", row.Strategy, row.MSOe, row.ASO)
		}
		if row.ChaosMSOe < 1 {
			t.Fatalf("%s: chaos MSOe %v below 1", row.Strategy, row.ChaosMSOe)
		}
		if row.WastedCost < 0 || row.Degradations < row.Retries {
			t.Fatalf("%s: inconsistent ledger (wasted %v, degradations %d, retries %d)",
				row.Strategy, row.WastedCost, row.Degradations, row.Retries)
		}
	}
	if res.Points != 25 {
		t.Fatalf("swept %d locations, want 25", res.Points)
	}
}

// With a fixed chaos seed, two bake-offs are bit-for-bit identical.
func TestBakeoffDeterministic(t *testing.T) {
	a, b := bakeoffFixture(t), bakeoffFixture(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("bake-off not deterministic:\n%+v\n%+v", a, b)
	}
	var ra, rb strings.Builder
	a.Report().Render(&ra)
	b.Report().Render(&rb)
	if ra.String() != rb.String() {
		t.Fatal("rendered reports diverge")
	}
	if a.Markdown() != b.Markdown() {
		t.Fatal("markdown renderings diverge")
	}
}

// A zero chaos rate skips the chaos sweep: chaos columns repeat the
// clean ones with an empty degradation ledger.
func TestBakeoffCleanOnly(t *testing.T) {
	h := New(Options{Res: 5})
	res, err := h.BakeoffFor("EQ", BakeoffOptions{Strategies: []string{"spillbound", "parqo"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ChaosMSOe != row.MSOe || row.WastedCost != 0 || row.Degradations != 0 {
			t.Fatalf("%s: clean-only run has chaos residue: %+v", row.Strategy, row)
		}
	}
}

func TestBakeoffUnknownStrategy(t *testing.T) {
	h := New(Options{Res: 5})
	if _, err := h.BakeoffFor("EQ", BakeoffOptions{Strategies: []string{"zzz"}}); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

// UpdateExperimentsFile must replace exactly the marked section,
// preserve surrounding text, append markers when absent, and be
// idempotent.
func TestBakeoffUpdateExperimentsFile(t *testing.T) {
	res := bakeoffFixture(t)
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := os.WriteFile(path, []byte("# Results\n\nhand-written intro\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := res.UpdateExperimentsFile(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hand-written intro", "<!-- bakeoff:begin -->",
		"<!-- bakeoff:end -->", "| spillbound |", "| adaptiveswitch |"} {
		if !strings.Contains(string(first), want) {
			t.Fatalf("updated file missing %q:\n%s", want, first)
		}
	}
	// Re-update: the section is replaced in place, not appended again.
	if err := res.UpdateExperimentsFile(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("second update not idempotent:\n%s\nvs\n%s", first, second)
	}
	if got := strings.Count(string(second), "<!-- bakeoff:begin -->"); got != 1 {
		t.Fatalf("%d begin markers, want 1", got)
	}
}

// The bake-off and the throughput driver read the grid through the
// artifact's contour source, so both run over a demand-driven
// (lazy) source exactly as over an eager one.
func TestBakeoffAndThroughputOverLazySource(t *testing.T) {
	spec, err := workload.ByName("EQ")
	if err != nil {
		t.Fatal(err)
	}
	ls, err := spec.LazySpaceWith(1.0, ess.Config{Res: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompileSource(ls, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bakeoff(c, "EQ", BakeoffOptions{Stride: 1, ChaosSeed: 2016, ChaosRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(core.Strategies()) || res.Points != ls.Geometry().NumPoints() {
		t.Fatalf("%d rows over %d points, want %d rows over %d",
			len(res.Rows), res.Points, len(core.Strategies()), ls.Geometry().NumPoints())
	}
	for _, row := range res.Rows {
		if row.MSOe < 1 || row.ASO < 1 || row.ASO > row.MSOe {
			t.Fatalf("%s: implausible MSOe %v / ASO %v", row.Strategy, row.MSOe, row.ASO)
		}
	}
	tp, err := Throughput(c, ThroughputOptions{Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Runs != 8 || tp.TotalSteps <= 0 {
		t.Fatalf("implausible throughput result %+v", tp)
	}
}
