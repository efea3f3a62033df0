package main

import (
	"time"

	"repro/internal/core/discovery"
	"repro/internal/ess"
)

// The decorators below time calls into a layer's public interface from
// outside: the benchmark wraps the engine or contour source it hands to
// core, and the program itself is not instrumented. A decorator is
// only trusted where the run shows its outcomes identical to an
// undecorated run (the workloads check this).

// layerClock accumulates one layer's busy time and call count. It is
// used from one goroutine at a time.
type layerClock struct {
	Busy  time.Duration
	Calls int64
}

func (c *layerClock) since(t0 time.Time) {
	c.Busy += time.Since(t0)
	c.Calls++
}

// timedEngine times a discovery.Engine (the cost-model sim).
type timedEngine struct {
	eng   discovery.Engine
	clock *layerClock
}

func (e timedEngine) ExecFull(planID int32, budget float64) (float64, bool) {
	defer e.clock.since(time.Now())
	return e.eng.ExecFull(planID, budget)
}

func (e timedEngine) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	defer e.clock.since(time.Now())
	return e.eng.ExecSpill(planID, dim, budget)
}

// execStats is the exec layer's work as seen through its engine
// interface: full and spill executions, kills and metered cost.
type execStats struct {
	Full, Spill layerClock
	Kills       int64
	CostUnits   float64
}

func (s *execStats) busy() time.Duration { return s.Full.Busy + s.Spill.Busy }
func (s *execStats) runs() int64         { return s.Full.Calls + s.Spill.Calls }

// timedFallible times a discovery.FallibleEngine (the real executor).
type timedFallible struct {
	eng   discovery.FallibleEngine
	stats *execStats
}

func (e timedFallible) ExecFull(planID int32, budget float64) (float64, bool, error) {
	t0 := time.Now()
	c, ok, err := e.eng.ExecFull(planID, budget)
	e.stats.Full.since(t0)
	e.count(c, ok)
	return c, ok, err
}

func (e timedFallible) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int, error) {
	t0 := time.Now()
	c, ok, idx, err := e.eng.ExecSpill(planID, dim, budget)
	e.stats.Spill.since(t0)
	e.count(c, ok)
	return c, ok, idx, err
}

func (e timedFallible) count(c float64, completed bool) {
	e.stats.CostUnits += c
	if !completed {
		e.stats.Kills++
	}
}

// timedSource times every call core makes into an ess.ContourSource.
// Evaluators the source hands out run against the wrapped source and
// are charged to whoever drives them (the engine).
type timedSource struct {
	ess.ContourSource
	clock *layerClock
}

func (s timedSource) Bounds() (float64, float64) {
	defer s.clock.since(time.Now())
	return s.ContourSource.Bounds()
}

func (s timedSource) ContourCosts() []float64 {
	defer s.clock.since(time.Now())
	return s.ContourSource.ContourCosts()
}

func (s timedSource) NumContours() int {
	defer s.clock.since(time.Now())
	return s.ContourSource.NumContours()
}

func (s timedSource) ContourAt(learned []int, ci int) *ess.Contour {
	defer s.clock.since(time.Now())
	return s.ContourSource.ContourAt(learned, ci)
}

func (s timedSource) CostAt(pt int32) float64 {
	defer s.clock.since(time.Now())
	return s.ContourSource.CostAt(pt)
}

func (s timedSource) PlanAt(pt int32) int32 {
	defer s.clock.since(time.Now())
	return s.ContourSource.PlanAt(pt)
}

func (s timedSource) Plan(id int32) *ess.PlanInfo {
	defer s.clock.since(time.Now())
	return s.ContourSource.Plan(id)
}

func (s timedSource) SpillDim(planID int32, remMask uint16) int {
	defer s.clock.since(time.Now())
	return s.ContourSource.SpillDim(planID, remMask)
}
