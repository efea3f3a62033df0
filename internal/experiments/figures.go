package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/core/alignedbound"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/mso"
	"repro/internal/workload"
)

// Fig3OCS samples the optimal cost surface of the example query EQ
// (Fig. 3): a grid sample of (sel_x, sel_y, optimal cost, plan).
func (h *Harness) Fig3OCS() (*Report, error) {
	s, err := h.space(workload.EQ())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Fig. 3 — Optimal Cost Surface for EQ (sampled)",
		Header: []string{"sel_x", "sel_y", "opt_cost", "plan"},
	}
	g := s.Grid
	step := g.Res / 6
	if step < 1 {
		step = 1
	}
	for x := 0; x < g.Res; x += step {
		for y := 0; y < g.Res; y += step {
			pt := g.Linear([]int{x, y})
			rep.AddRow(
				fmt.Sprintf("%.1e", g.Vals[x]),
				fmt.Sprintf("%.1e", g.Vals[y]),
				f1(s.PointCost[pt]),
				s.Plan(s.PointPlan[pt]).Sig,
			)
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("full surface: %d locations, %d POSP plans, cost range [%.3g, %.3g], %d contours",
			g.NumPoints(), s.NumPlans(), s.Cmin, s.Cmax, len(s.Contours)))
	return rep, nil
}

// Fig7Trace reproduces the 2D-SpillBound execution trace on Q91
// (Fig. 7): the sequence of budgeted executions for a query located off
// both axes, with the Manhattan profile of the running location.
func (h *Harness) Fig7Trace() (*Report, error) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		return nil, err
	}
	s, err := h.space(spec)
	if err != nil {
		return nil, err
	}
	// The paper's qa = (0.04, 0.1); snap to the grid.
	xi := s.Grid.NearestIndex(0.04)
	yi := s.Grid.NearestIndex(0.1)
	qa := int32(s.Grid.Linear([]int{xi, yi}))
	out, err := spillbound.Run(s, discovery.NewSimEngine(s, qa))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Fig. 7 — 2D-SpillBound trace on Q91, qa=(%.2g, %.2g)",
			s.Grid.Vals[xi], s.Grid.Vals[yi]),
		Header: []string{"step", "contour", "exec", "dim", "budget", "cost", "learned"},
	}
	for i, st := range out.Steps {
		exec := fmt.Sprintf("P%d", st.PlanID)
		if st.Phase == discovery.PhaseSpill {
			exec = fmt.Sprintf("p%d", st.PlanID) // spill-mode, paper's lowercase
		}
		dim := "-"
		learned := "-"
		if st.Dim >= 0 {
			dim = fmt.Sprintf("%d", st.Dim)
			if st.LearnedIdx >= 0 {
				learned = fmt.Sprintf("%.2g", s.Grid.Vals[st.LearnedIdx])
				if st.Completed {
					learned += " (exact)"
				} else {
					learned = "> " + learned
				}
			}
		}
		rep.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("IC%d", st.Contour),
			exec, dim, f1(st.Budget), f1(st.Cost), learned)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("total cost %.1f, optimal %.1f, sub-optimality %.2f (bound %d)",
			out.TotalCost, s.PointCost[qa], out.SubOpt(s.PointCost[qa]), int(spillbound.Guarantee(2))))
	return rep, nil
}

// Fig8MSOg compares the MSO guarantees of PlanBouquet (4(1+λ)ρ_red) and
// SpillBound (D²+3D) across the benchmark suite (Fig. 8).
func (h *Harness) Fig8MSOg() (*Report, error) {
	rep := &Report{
		Title:  "Fig. 8 — MSO guarantees (MSOg): PlanBouquet vs SpillBound",
		Header: []string{"query", "D", "rho_red", "PB MSOg", "SB MSOg"},
	}
	for _, spec := range workload.Suite() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		pb, _ := c.StrategyGuarantee(core.PlanBouquet)
		sb, _ := c.StrategyGuarantee(core.SpillBound)
		rep.AddRow(spec.Name, fmt.Sprintf("%d", spec.D),
			fmt.Sprintf("%d", c.Reduction().Rho), f1(pb), f1(sb))
	}
	rep.Notes = append(rep.Notes, "PB computed as 4(1+λ)·ρ_red with λ=0.2; SB as D²+3D")
	return rep, nil
}

// Fig9Dimensionality tracks MSOg versus ESS dimensionality on the Q91
// family (Fig. 9).
func (h *Harness) Fig9Dimensionality() (*Report, error) {
	rep := &Report{
		Title:  "Fig. 9 — MSOg vs dimensionality (Q91, D=2..6)",
		Header: []string{"query", "D", "rho_red", "PB MSOg", "SB MSOg"},
	}
	for _, spec := range workload.Q91Family() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		pb, _ := c.StrategyGuarantee(core.PlanBouquet)
		sb, _ := c.StrategyGuarantee(core.SpillBound)
		rep.AddRow(spec.Name, fmt.Sprintf("%d", spec.D),
			fmt.Sprintf("%d", c.Reduction().Rho), f1(pb), f1(sb))
	}
	return rep, nil
}

// Fig10MSOe compares the empirical MSO of PB and SB over exhaustive (or
// strided, for 5D/6D) enumeration of the ESS (Fig. 10).
func (h *Harness) Fig10MSOe() (*Report, error) {
	rep := &Report{
		Title:  "Fig. 10 — empirical MSO (MSOe): PlanBouquet vs SpillBound",
		Header: []string{"query", "D", "PB MSOe", "SB MSOe", "PB MSOg", "SB MSOg"},
	}
	for _, spec := range workload.Suite() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		opts := h.sweepOpts(spec.D)
		pbE, err := c.MSO(core.PlanBouquet, opts)
		if err != nil {
			return nil, err
		}
		sbE, err := c.MSO(core.SpillBound, opts)
		if err != nil {
			return nil, err
		}
		pbG, _ := c.StrategyGuarantee(core.PlanBouquet)
		sbG, _ := c.StrategyGuarantee(core.SpillBound)
		rep.AddRow(spec.Name, fmt.Sprintf("%d", spec.D),
			f1(pbE.MSO), f1(sbE.MSO), f1(pbG), f1(sbG))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("5D/6D sweeps use stride %d over the grid", h.Opts.StrideHighD))
	return rep, nil
}

// Fig11ASO compares the average sub-optimality of PB and SB (Fig. 11).
func (h *Harness) Fig11ASO() (*Report, error) {
	rep := &Report{
		Title:  "Fig. 11 — average sub-optimality (ASO): PlanBouquet vs SpillBound",
		Header: []string{"query", "D", "PB ASO", "SB ASO"},
	}
	for _, spec := range workload.Suite() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		opts := h.sweepOpts(spec.D)
		pbE, err := c.MSO(core.PlanBouquet, opts)
		if err != nil {
			return nil, err
		}
		sbE, err := c.MSO(core.SpillBound, opts)
		if err != nil {
			return nil, err
		}
		rep.AddRow(spec.Name, fmt.Sprintf("%d", spec.D), f2(pbE.ASO), f2(sbE.ASO))
	}
	return rep, nil
}

// Fig12Histogram renders the sub-optimality distribution of PB and SB on
// 4D_Q91 with bucket width 5 (Fig. 12).
func (h *Harness) Fig12Histogram() (*Report, error) {
	spec, err := workload.ByName("4D_Q91")
	if err != nil {
		return nil, err
	}
	c, err := h.compiled(spec)
	if err != nil {
		return nil, err
	}
	pbE, err := c.MSO(core.PlanBouquet, mso.Options{})
	if err != nil {
		return nil, err
	}
	sbE, err := c.MSO(core.SpillBound, mso.Options{})
	if err != nil {
		return nil, err
	}
	pbH := mso.Histogram(pbE.SubOpts, 5)
	sbH := mso.Histogram(sbE.SubOpts, 5)
	rep := &Report{
		Title:  "Fig. 12 — sub-optimality distribution, 4D_Q91 (bucket width 5)",
		Header: []string{"sub-opt range", "PB locations", "PB %", "SB locations", "SB %"},
	}
	n := len(pbH)
	if len(sbH) > n {
		n = len(sbH)
	}
	for i := 0; i < n; i++ {
		var pbC, sbC int
		var pbF, sbF float64
		lo, hi := float64(i)*5, float64(i+1)*5
		if i < len(pbH) {
			pbC, pbF = pbH[i].Count, pbH[i].Frac
		}
		if i < len(sbH) {
			sbC, sbF = sbH[i].Count, sbH[i].Frac
		}
		rep.AddRow(fmt.Sprintf("[%.0f, %.0f)", lo, hi),
			fmt.Sprintf("%d", pbC), pct(pbF), fmt.Sprintf("%d", sbC), pct(sbF))
	}
	return rep, nil
}

// Fig13MSOeAB compares the empirical MSO of SB and AB against the 2D+2
// reference line (Fig. 13).
func (h *Harness) Fig13MSOeAB() (*Report, error) {
	rep := &Report{
		Title:  "Fig. 13 — empirical MSO: SpillBound vs AlignedBound",
		Header: []string{"query", "D", "SB MSOe", "AB MSOe", "2D+2"},
	}
	for _, spec := range workload.Suite() {
		c, err := h.compiled(spec)
		if err != nil {
			return nil, err
		}
		opts := h.sweepOpts(spec.D)
		sbE, err := c.MSO(core.SpillBound, opts)
		if err != nil {
			return nil, err
		}
		abE, err := c.MSO(core.AlignedBound, opts)
		if err != nil {
			return nil, err
		}
		lo, _ := alignedbound.GuaranteeRange(spec.D)
		rep.AddRow(spec.Name, fmt.Sprintf("%d", spec.D),
			f1(sbE.MSO), f1(abE.MSO), f1(lo))
	}
	return rep, nil
}

// JOB evaluates JOB query 1a (§6.5): native optimizer worst-case MSO vs
// SB vs AB.
func (h *Harness) JOB() (*Report, error) {
	spec := workload.JOBQ1a()
	c, err := h.compiled(spec)
	if err != nil {
		return nil, err
	}
	native := c.NativeWorstCaseMSO(mso.Options{})
	sbE, err := c.MSO(core.SpillBound, mso.Options{})
	if err != nil {
		return nil, err
	}
	abE, err := c.MSO(core.AlignedBound, mso.Options{})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "§6.5 — JOB benchmark query 1a",
		Header: []string{"approach", "MSOe", "ASO"},
	}
	rep.AddRow("native optimizer (worst-case)", f1(native.MSO), f1(native.ASO))
	rep.AddRow("SpillBound", f1(sbE.MSO), f2(sbE.ASO))
	rep.AddRow("AlignedBound", f1(abE.MSO), f2(abE.ASO))
	rep.Notes = append(rep.Notes,
		"implicit cyclic join predicates dropped as in the paper's work-around")
	return rep, nil
}
