package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/storage"
)

// ExecutorPool recycles row-level executors across concurrent
// discoveries. Executors are cheap but not free (operator scratch,
// meter state), and RealEngine needs a private one per run; the pool
// keeps N concurrent runs from constructing one per discovery.
type ExecutorPool struct {
	pool sync.Pool
}

// NewExecutorPool creates a pool producing executors for the query over
// the store.
func NewExecutorPool(q *query.Query, store *storage.Store, params cost.Params) *ExecutorPool {
	return &ExecutorPool{pool: sync.Pool{
		New: func() any { return exec.New(q, store, params) },
	}}
}

// Get returns an executor, creating one if the pool is empty.
func (p *ExecutorPool) Get() *exec.Executor { return p.pool.Get().(*exec.Executor) }

// Put returns an executor to the pool, disarming any fault injector and
// resetting the worker count the borrower attached so the next borrower
// starts clean.
func (p *ExecutorPool) Put(e *exec.Executor) {
	e.WithFaults(nil)
	e.WithWorkers(1)
	p.pool.Put(e)
}

// ThroughputOptions configures a Throughput measurement.
type ThroughputOptions struct {
	// Strategy names the registered policy driven (default SpillBound);
	// any bake-off policy can be throughput-profiled behind the same
	// latent/faulty engine stack.
	Strategy string
	// Parallel is the number of concurrent discoveries (default 1).
	Parallel int
	// Runs is the total number of discoveries (default 64).
	Runs int
	// ExecLatency is the simulated per-execution engine latency
	// (discovery.Latent); it models the I/O-bound remote engine of a
	// service deployment, whose waits concurrent discoveries overlap.
	// Zero measures pure CPU-bound simulation.
	ExecLatency time.Duration
	// Faults, when set, is the base injector every run forks its own
	// deterministic substream from (Fork(runID)).
	Faults *faultinject.Injector
	// Context, when set, bounds the whole measurement: workers stop
	// picking up new runs once it is done, in-flight discoveries abort
	// at their next execution boundary (engine waits included), and
	// Throughput returns the abort as an error. Nil means unbounded.
	Context context.Context
}

func (o ThroughputOptions) withDefaults() ThroughputOptions {
	if o.Strategy == "" {
		o.Strategy = core.SpillBound
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	if o.Runs <= 0 {
		o.Runs = 64
	}
	return o
}

// ThroughputResult aggregates one Throughput measurement.
type ThroughputResult struct {
	// Parallel and Runs echo the options.
	Parallel, Runs int
	// Wall is the elapsed wall-clock time for all runs.
	Wall time.Duration
	// DiscoveriesPerSec is Runs over Wall.
	DiscoveriesPerSec float64
	// MeanLatency, P50, P95, and MaxLatency summarize per-discovery
	// wall-clock latency.
	MeanLatency, P50, P95, MaxLatency time.Duration
	// TotalSteps counts engine executions across all runs.
	TotalSteps int
	// TotalRetries counts transient-fault retries the resilient driver
	// paid across all runs (zero with chaos disarmed). A retry is work
	// the throughput number absorbed silently — surfacing it keeps
	// chaos-mode measurements honest.
	TotalRetries int
}

// Throughput drives opts.Runs discoveries over one shared Compiled
// artifact with opts.Parallel workers, each discovery on its own Run
// with its own forked fault substream, and reports aggregate
// latency/throughput. True locations cycle through the grid in a fixed
// pseudo-random order, so every configuration measures the same work
// mix regardless of parallelism.
func Throughput(c *core.Compiled, opts ThroughputOptions) (*ThroughputResult, error) {
	opts = opts.withDefaults()
	n := c.Source.Geometry().NumPoints()
	lats := make([]time.Duration, opts.Runs)
	steps := make([]int, opts.Runs)
	retries := make([]int, opts.Runs)
	errs := make([]error, opts.Parallel)

	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	ctx := opts.Context
	start := time.Now()
	for w := 0; w < opts.Parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				if ctx != nil && ctx.Err() != nil {
					errs[w] = fmt.Errorf("throughput: %w", &discovery.AbortError{Err: ctx.Err()})
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= opts.Runs {
					return
				}
				// Knuth's multiplicative hash spreads the runs over the
				// grid deterministically.
				qa := int32(uint64(i) * 2654435761 % uint64(n))
				run := c.NewRun().WithFaults(opts.Faults.Fork(uint64(i)))
				if ctx != nil {
					run.WithContext(ctx)
				}
				t0 := time.Now()
				out, err := discoverLatent(run, opts.Strategy, qa, opts.ExecLatency)
				lats[i] = time.Since(t0)
				if err != nil {
					errs[w] = fmt.Errorf("throughput: run %d (qa=%d): %w", i, qa, err)
					stop.Store(true)
					return
				}
				steps[i] = len(out.Steps)
				retries[i] = out.Retries
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &ThroughputResult{Parallel: opts.Parallel, Runs: opts.Runs, Wall: wall}
	if wall > 0 {
		res.DiscoveriesPerSec = float64(opts.Runs) / wall.Seconds()
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	res.MeanLatency = sum / time.Duration(opts.Runs)
	res.P50 = sorted[opts.Runs/2]
	res.P95 = sorted[opts.Runs*95/100]
	res.MaxLatency = sorted[opts.Runs-1]
	for _, s := range steps {
		res.TotalSteps += s
	}
	for _, r := range retries {
		res.TotalRetries += r
	}
	return res, nil
}

// discoverLatent is Run.DiscoverStrategy with the simulated engine
// behind a discovery.Latent delay (and, with faults armed, behind the
// faulty engine plus the resilient driver, as in DiscoverStrategy).
func discoverLatent(r *core.Run, strategy string, qa int32, delay time.Duration) (*core.Outcome, error) {
	sim := discovery.NewSimEngine(r.Compiled().Source, qa)
	ctx := r.Context()
	var eng discovery.Engine
	if in := r.Faults(); in != nil {
		lat := discovery.NewLatentFallible(discovery.NewFaultySim(sim, in), delay)
		res := discovery.NewResilient(lat, discovery.DefaultRetryPolicy).WithJitter(in.Jitter)
		if ctx != nil {
			lat.WithContext(ctx)
			res.WithContext(ctx)
		}
		eng = res
	} else {
		lat := discovery.NewLatent(sim, delay)
		if ctx != nil {
			lat.WithContext(ctx)
		}
		eng = lat
	}
	return r.DiscoverStrategyWith(strategy, eng)
}
