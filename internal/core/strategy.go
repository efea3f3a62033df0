package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core/discovery"
)

// Strategy is a pluggable robust-query-processing policy: a stable wire
// name, an optional compile-time preparation step, and a per-run
// discovery driver. The three paper algorithms (PlanBouquet,
// SpillBound, AlignedBound) are registered behind this interface, as
// are the comparison strategies of the bake-off harness (PARQO-lite,
// RobustMap, AdaptiveSwitch) — all six run through the same engine
// stack (fault injection, resilient retries, deadline guard), so the
// bake-off compares policies, not plumbing.
type Strategy interface {
	// Name is the registry key and wire name (lower-case, stable).
	Name() string

	// Prepare runs the strategy's compile-time step over the artifact
	// and returns per-artifact state handed to every Discover. It must
	// be a pure function of the artifact (no per-run randomness), so the
	// memoized result can be shared by concurrent runs. Strategies with
	// no compile-time step return (nil, nil).
	Prepare(c *Compiled) (any, error)

	// Discover drives one discovery for the run through the engine,
	// using the prepared state. Implementations must poll
	// discovery.AbortOf(eng) before every budgeted execution so
	// deadline-bounded runs stop at execution boundaries, and must
	// never look at the true location except through the engine.
	Discover(r *Run, prep any, eng discovery.Engine) (*discovery.Outcome, error)
}

// Guaranteed is optionally implemented by strategies with an a-priori
// MSO bound (the paper algorithms). Strategies without one — the
// heuristic comparison policies — simply do not implement it, and the
// bake-off table renders their guarantee as absent.
type Guaranteed interface {
	// Guarantee returns the strategy's a-priori MSO bound on the
	// artifact, and whether one exists.
	Guarantee(c *Compiled) (float64, bool)
}

// strategyRegistry is the process-wide strategy table. Registration
// order is preserved so every listing (bake-off rows, /metrics series,
// CLI help) is deterministic.
var strategyRegistry = struct {
	mu    sync.RWMutex
	order []string
	byKey map[string]Strategy
}{byKey: make(map[string]Strategy)}

// RegisterStrategy adds a strategy to the registry. Names are
// case-insensitive and must be unique; re-registering a name panics, as
// silently shadowing a policy would corrupt any running bake-off.
func RegisterStrategy(s Strategy) {
	key := strings.ToLower(s.Name())
	if key == "" {
		panic("core: RegisterStrategy with empty name")
	}
	strategyRegistry.mu.Lock()
	defer strategyRegistry.mu.Unlock()
	if _, dup := strategyRegistry.byKey[key]; dup {
		panic(fmt.Sprintf("core: strategy %q registered twice", key))
	}
	strategyRegistry.byKey[key] = s
	strategyRegistry.order = append(strategyRegistry.order, key)
}

// StrategyByName resolves a registered strategy (case-insensitive).
func StrategyByName(name string) (Strategy, bool) {
	strategyRegistry.mu.RLock()
	defer strategyRegistry.mu.RUnlock()
	s, ok := strategyRegistry.byKey[strings.ToLower(name)]
	return s, ok
}

// Strategies lists the registered strategy names in registration order:
// the three paper algorithms first, then the bake-off comparison
// strategies.
func Strategies() []string {
	strategyRegistry.mu.RLock()
	defer strategyRegistry.mu.RUnlock()
	return append([]string(nil), strategyRegistry.order...)
}

// StrategyNamesSorted lists the registered names alphabetically (for
// error messages).
func StrategyNamesSorted() []string {
	names := Strategies()
	sort.Strings(names)
	return names
}

func init() {
	// The paper algorithms first, then the bake-off comparison
	// strategies; every listing follows this order.
	RegisterStrategy(paperStrategy{name: PlanBouquet})
	RegisterStrategy(paperStrategy{name: SpillBound})
	RegisterStrategy(paperStrategy{name: AlignedBound})
	RegisterStrategy(parqoStrategy{})
	RegisterStrategy(robustMapStrategy{})
	RegisterStrategy(adaptiveSwitchStrategy{})
}

// StrategyGuarantee returns the a-priori MSO bound of the named
// strategy on this artifact, or ok=false when the strategy has none (or
// is unknown).
func (c *Compiled) StrategyGuarantee(name string) (float64, bool) {
	s, ok := StrategyByName(name)
	if !ok {
		return 0, false
	}
	g, ok := s.(Guaranteed)
	if !ok {
		return 0, false
	}
	return g.Guarantee(c)
}

// prepEntry memoizes one strategy's compile-time preparation on an
// artifact. The once guards the computation; racing runs share the
// winner.
type prepEntry struct {
	once sync.Once
	val  any
	err  error
}

// strategyPrep returns the strategy's memoized compile-time state for
// this artifact, computing it on first use. Preparation is a pure
// function of the artifact, so the cached value is safe to share across
// concurrent runs.
func (c *Compiled) strategyPrep(s Strategy) (any, error) {
	e, _ := c.preps.LoadOrStore(strings.ToLower(s.Name()), &prepEntry{})
	pe := e.(*prepEntry)
	pe.once.Do(func() { pe.val, pe.err = s.Prepare(c) })
	return pe.val, pe.err
}

// PrepareStrategy eagerly runs (and memoizes) the named strategy's
// compile-time step, so servers can pay it at artifact-install time
// instead of on the first request.
func (c *Compiled) PrepareStrategy(name string) error {
	s, ok := StrategyByName(name)
	if !ok {
		return fmt.Errorf("core: unknown strategy %q", name)
	}
	_, err := c.strategyPrep(s)
	return err
}
