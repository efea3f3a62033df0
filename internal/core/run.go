package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core/discovery"
	"repro/internal/faultinject"
)

// Run holds the mutable state of one discovery over a shared Compiled
// artifact: the armed fault injector (if any) and the run's penalty
// ledger. A Run is cheap to create and single-goroutine by design —
// concurrent discoveries each get their own Run, typically with their
// own forked fault substream (faultinject.Injector.Fork), and share
// everything else through the immutable Compiled.
type Run struct {
	c           *Compiled
	faults      *faultinject.Injector
	ctx         context.Context
	maxPenalty  float64
	execWorkers int
}

// NewRun creates a fresh run over the compiled artifact.
func (c *Compiled) NewRun() *Run { return &Run{c: c} }

// runPool recycles Run structs for request-rate callers. A Run is
// small, but the serving hot path creates one per admitted request —
// pooling it (with the per-request response buffers) is part of the
// zero-allocation serve path.
var runPool = sync.Pool{New: func() any { return new(Run) }}

// AcquireRun returns a pooled run over the compiled artifact,
// equivalent to NewRun. Callers that can prove the run has no
// remaining references when they finish should return it with
// ReleaseRun; callers that cannot may simply drop it.
func (c *Compiled) AcquireRun() *Run {
	r := runPool.Get().(*Run)
	*r = Run{c: c}
	return r
}

// ReleaseRun zeroes the run and returns it to the pool. The run must
// not be used after release.
func ReleaseRun(r *Run) {
	if r == nil {
		return
	}
	*r = Run{}
	runPool.Put(r)
}

// Compiled returns the artifact the run executes against.
func (r *Run) Compiled() *Compiled { return r.c }

// WithFaults arms (or with nil disarms) fault injection for this run's
// simulated discoveries and returns the run. For concurrent chaos runs
// pass each run its own substream — base.Fork(runID) — so every run's
// schedule is deterministic regardless of interleaving.
func (r *Run) WithFaults(in *faultinject.Injector) *Run {
	r.faults = in
	return r
}

// Faults returns the run's armed injector (nil when disarmed).
func (r *Run) Faults() *faultinject.Injector { return r.faults }

// WithExecWorkers sets the run's intra-query execution parallelism and
// returns the run. The knob is advisory plumbing for drivers that
// execute plans on the real vectorized engine (exec.Executor.WithWorkers);
// the cost-model simulation is unaffected — simulated discoveries
// charge modeled cost, which is worker-count invariant by the engine's
// metering contract. Values below 1 read back as 1.
func (r *Run) WithExecWorkers(n int) *Run {
	r.execWorkers = n
	return r
}

// ExecWorkers returns the run's execution parallelism (minimum 1).
func (r *Run) ExecWorkers() int {
	if r.execWorkers < 1 {
		return 1
	}
	return r.execWorkers
}

// WithContext bounds the run's discoveries by the context and returns
// the run. An expired deadline (or a cancellation) aborts the discovery
// at the next execution boundary: the algorithm stops with a typed
// *discovery.AbortError, the partial Outcome keeps every cost unit
// consumed so far, and an "exec-abandoned" degradation records the
// abort cause. A nil or background context leaves runs unbounded.
func (r *Run) WithContext(ctx context.Context) *Run {
	r.ctx = ctx
	return r
}

// Context returns the run's bounding context (nil when unbounded).
func (r *Run) Context() context.Context { return r.ctx }

// MaxPenalty returns the largest AlignedBound partition penalty π*
// observed so far by this run (1 if only aligned contours were used; 0
// if AlignedBound never ran).
func (r *Run) MaxPenalty() float64 { return r.maxPenalty }

// simStack builds the run's cost-model-simulated execution engine for
// the instance at qa: the bare sim, wrapped — when faults are armed —
// in the fault-injecting engine plus the resilient retry driver, and —
// when a context bounds the run — in the deadline guard. Every
// registered strategy runs on this one stack, so all six bake-off
// policies see identical plumbing.
func (r *Run) simStack(qa int32) discovery.Engine {
	sim := discovery.NewSimEngine(r.c.Source, qa)
	if in := r.faults; in != nil {
		res := discovery.NewResilient(discovery.NewFaultySim(sim, in), discovery.DefaultRetryPolicy).
			WithJitter(in.Jitter)
		if r.ctx != nil {
			res.WithContext(r.ctx)
		}
		return res
	}
	if r.ctx != nil {
		return discovery.NewGuard(r.ctx, sim)
	}
	return sim
}

// DiscoverStrategy runs the named strategy for the query instance whose
// true location is the grid point qa, using cost-model simulated
// execution behind the run's armed injector and context (see
// simStack). With faults armed the simulation runs behind the
// fault-injecting engine and the resilient retry driver.
func (r *Run) DiscoverStrategy(name string, qa int32) (*discovery.Outcome, error) {
	return r.DiscoverStrategyWith(name, r.simStack(qa))
}

// DiscoverStrategyWith runs the named strategy against an arbitrary
// execution engine (e.g. the real row-level executor, typically behind
// discovery.NewResilient). When the engine is a *discovery.Resilient,
// the degradations, retries, and wasted cost it recorded during the run
// are attached to the returned Outcome.
func (r *Run) DiscoverStrategyWith(name string, eng discovery.Engine) (*discovery.Outcome, error) {
	s, ok := StrategyByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown strategy %q (registered: %s)",
			name, strings.Join(StrategyNamesSorted(), ", "))
	}
	prep, err := r.c.strategyPrep(s)
	if err != nil {
		return nil, fmt.Errorf("core: preparing strategy %q: %w", name, err)
	}
	out, err := s.Discover(r, prep, eng)
	if res, ok := eng.(*discovery.Resilient); ok && out != nil {
		degs, retries, wasted := res.Take()
		out.Degradations = append(out.Degradations, degs...)
		out.Retries += retries
		out.WastedCost += wasted
	}
	// A run-level abort (deadline, cancellation, drain) is stamped once
	// on the partial outcome: the execution the run was about to issue —
	// or was retrying — was abandoned, not observed-and-lost.
	if aerr := discovery.AbortCause(err); aerr != nil && out != nil {
		out.Degradations = append(out.Degradations, discovery.Degradation{
			Kind: "exec-abandoned", Detail: aerr.Err.Error(),
		})
	}
	return out, err
}
