package core

import (
	"fmt"

	"repro/internal/core/alignedbound"
	"repro/internal/core/bouquet"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/faultinject"
)

// paperStrategy adapts one of the paper's algorithms to the Strategy
// interface. The three differ only in their contour policy and their
// a-priori bound, so one type carries both switches.
type paperStrategy struct{ name string }

func (p paperStrategy) Name() string { return p.name }

// Prepare is a no-op: the reduction and alignment planner are already
// part of the Compiled artifact.
func (p paperStrategy) Prepare(c *Compiled) (any, error) { return nil, nil }

func (p paperStrategy) Discover(r *Run, _ any, eng discovery.Engine) (*discovery.Outcome, error) {
	switch p.name {
	case PlanBouquet:
		return bouquet.Run(r.c.Source, r.c.Reduction(), eng)
	case SpillBound:
		return spillbound.Run(r.c.Source, eng)
	default:
		return r.runAligned(eng)
	}
}

// Guarantee returns the bound the paper proves for the algorithm. For
// AlignedBound the upper end of its range is returned (use
// alignedbound.GuaranteeRange for both).
func (p paperStrategy) Guarantee(c *Compiled) (float64, bool) {
	d := c.Source.Geometry().D
	switch p.name {
	case PlanBouquet:
		return bouquet.Guarantee(c.Reduction()), true
	case SpillBound:
		return spillbound.Guarantee(d), true
	default:
		_, hi := alignedbound.GuaranteeRange(d)
		return hi, true
	}
}

// runAligned runs AlignedBound with the planner-failure degradation:
// when the armed injector trips the alignment-planner site, or the
// planner panics during a chaos run, the discovery falls back to
// SpillBound — the algorithm AlignedBound refines — and the fallback is
// recorded on the Outcome. Fault-free runs never mask planner panics.
func (r *Run) runAligned(eng discovery.Engine) (out *discovery.Outcome, err error) {
	in := r.faults
	if ferr := in.Check(faultinject.SiteAlignPlanner); ferr != nil {
		return r.alignFallback(eng, ferr.Error())
	}
	if in != nil {
		defer func() {
			if rec := recover(); rec != nil {
				out, err = r.alignFallback(eng, fmt.Sprintf("planner panic: %v", rec))
			}
		}()
	}
	out, pen, err := alignedbound.Run(r.c.Source, r.c.planner, eng)
	if out != nil {
		out.AlignPenalty = pen
	}
	if pen > r.maxPenalty {
		r.maxPenalty = pen
	}
	return out, err
}

// alignFallback degrades an AlignedBound discovery to SpillBound,
// stamping the Outcome with the "alignment-fallback" degradation.
func (r *Run) alignFallback(eng discovery.Engine, detail string) (*discovery.Outcome, error) {
	out, err := spillbound.Run(r.c.Source, eng)
	if out != nil {
		out.Degradations = append(out.Degradations, discovery.Degradation{
			Kind: "alignment-fallback", Detail: detail,
		})
	}
	return out, err
}
