package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/core/alignedbound"
	"repro/internal/workload"
)

// table2Queries are the instances profiled in Table 2 of the paper.
var table2Queries = []string{"3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q29", "5D_Q84"}

// Table2Alignment reproduces Table 2: the percentage of contours that
// satisfy contour alignment natively ("Original") and under replacement
// penalty thresholds Δ, plus the maximum Δ required to align everything.
func (h *Harness) Table2Alignment() (*Report, error) {
	rep := &Report{
		Title:  "Table 2 — cost of enforcing contour alignment",
		Header: []string{"query", "Original", "Δ=1.2", "Δ=1.5", "Δ=2.0", "Max Δ"},
	}
	for _, name := range table2Queries {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		prof := c.Planner().Profile()
		maxD := alignedbound.MaxProfilePenalty(prof)
		maxStr := f2(maxD)
		if math.IsInf(maxD, 1) {
			maxStr = "inf"
		}
		rep.AddRow(name,
			pct(alignedbound.AlignedFraction(prof, 1)),
			pct(alignedbound.AlignedFraction(prof, 1.2)),
			pct(alignedbound.AlignedFraction(prof, 1.5)),
			pct(alignedbound.AlignedFraction(prof, 2.0)),
			maxStr)
	}
	return rep, nil
}

// Table4Penalty reproduces Table 4: the maximum partition penalty π*
// AlignedBound encounters during execution, per query, measured across
// a full MSO sweep.
func (h *Harness) Table4Penalty() (*Report, error) {
	rep := &Report{
		Title:  "Table 4 — maximum partition penalty for AlignedBound",
		Header: []string{"query", "max penalty"},
	}
	for _, spec := range workload.Suite() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		abE, err := c.MSO(core.AlignedBound, h.sweepOpts(spec.D))
		if err != nil {
			return nil, err
		}
		rep.AddRow(spec.Name, f2(abE.MaxAlignPenalty))
	}
	rep.Notes = append(rep.Notes,
		"penalty is the per-contour sum over partition parts; 1.0 = fully aligned cover")
	return rep, nil
}

// SuiteSummary is a convenience overview: guarantees and empirical MSO
// for all three algorithms on every suite query.
func (h *Harness) SuiteSummary() (*Report, error) {
	rep := &Report{
		Title: "Suite summary — guarantees and empirical MSO",
		Header: []string{"query", "D", "PB MSOg", "SB MSOg", "PB MSOe",
			"SB MSOe", "AB MSOe", "native MSOe"},
	}
	for _, spec := range workload.Suite() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		opts := h.sweepOpts(spec.D)
		pbG, _ := c.StrategyGuarantee(core.PlanBouquet)
		sbG, _ := c.StrategyGuarantee(core.SpillBound)
		pbE, err := c.MSO(core.PlanBouquet, opts)
		if err != nil {
			return nil, err
		}
		sbE, err := c.MSO(core.SpillBound, opts)
		if err != nil {
			return nil, err
		}
		abE, err := c.MSO(core.AlignedBound, opts)
		if err != nil {
			return nil, err
		}
		native := c.NativeWorstCaseMSO(opts)
		rep.AddRow(spec.Name, fmt.Sprintf("%d", spec.D),
			f1(pbG), f1(sbG), f1(pbE.MSO), f1(sbE.MSO), f1(abE.MSO), f1(native.MSO))
	}
	return rep, nil
}
