package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// engine: no server. EQ, 4D_Q91 and 5D_Q19 on generated data at scale
// 0.3 (from the fixed engineDataSeed), with the search space built
// from the data's statistics. One caller runs the seeded (query,
// strategy) sequence over all six strategies in a closed loop, each
// discovery driving real budgeted executions through
// discovery.NewResilient at nproc exec workers: the only workload
// where exec works.

const (
	engineScale = 0.3
	// engineTraceN caps how many of the measured discoveries the traced
	// run replays.
	engineTraceN = 200
)

// engineQuery is one query's set-up: data, space, artifact, executors,
// and the oracle (the optimal plan at the data's true location, really
// executed).
type engineQuery struct {
	name   string
	d      int
	q      *query.Query
	store  *storage.Store
	space  *ess.Space
	c      *core.Compiled
	pool   *experiments.ExecutorPool
	oracle float64

	stats, build, compile, prep time.Duration
}

// populateEngine generates the data set. Every engine query reads the
// same TPC-DS catalog at the same scale and seed, so one store serves
// all three.
func populateEngine(dataSeed uint64) (*storage.Store, time.Duration, error) {
	spec, err := workload.ByName(engineQueries[0])
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	q, err := spec.Load(engineScale)
	if err != nil {
		return nil, 0, err
	}
	store, err := datagen.Populate(q.Cat, datagen.Options{Seed: dataSeed, BuildIndexes: true})
	if err != nil {
		return nil, 0, fmt.Errorf("generating data: %w", err)
	}
	return store, time.Since(t0), nil
}

func setupEngineQuery(name string, store *storage.Store) (*engineQuery, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	eq := &engineQuery{name: name, d: spec.D, store: store}
	t1 := time.Now()
	if eq.q, err = spec.Load(engineScale); err != nil {
		return nil, err
	}
	st, err := stats.FromData(eq.q.Cat, eq.store, 24)
	if err != nil {
		return nil, fmt.Errorf("%s: statistics: %w", name, err)
	}
	t2 := time.Now()
	env := optimizer.BuildEnv(eq.q, st)
	if eq.space, err = ess.Build(eq.q, env, cost.NewModel(cost.DefaultParams()), ess.Config{Res: spec.Res}); err != nil {
		return nil, fmt.Errorf("%s: building the space: %w", name, err)
	}
	t3 := time.Now()
	if eq.c, err = core.Compile(eq.space, core.CompileOptions{}); err != nil {
		return nil, err
	}
	t4 := time.Now()
	if err := prepareAll(eq.c); err != nil {
		return nil, err
	}
	t5 := time.Now()
	eq.stats, eq.build, eq.compile, eq.prep = t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	eq.pool = experiments.NewExecutorPool(eq.q, eq.store, cost.DefaultParams())
	return eq, nil
}

// measureOracle really executes the optimal plan at the data's true
// (grid-snapped) location; discoveries' sub-optimality is priced
// against it.
func (eq *engineQuery) measureOracle() error {
	idx := make([]int, eq.q.D())
	for d, joinID := range eq.q.EPPs {
		sel, err := stats.TrueJoinSel(eq.store, eq.q, eq.q.Joins[joinID])
		if err != nil {
			return err
		}
		idx[d] = eq.space.Grid.NearestIndex(sel)
	}
	qa := int32(eq.space.Grid.Linear(idx))
	ex := eq.pool.Get()
	defer eq.pool.Put(ex)
	res, err := ex.Run(eq.space.Plan(eq.space.PointPlan[qa]).Root, 0)
	if err != nil {
		return fmt.Errorf("%s: oracle execution: %w", eq.name, err)
	}
	eq.oracle = res.Cost
	return nil
}

// discoverReal runs one discovery over real executions. With stats
// set, the artifact c must be compiled over a timedSource and the
// engine is timed too.
func (eq *engineQuery) discoverReal(c *core.Compiled, strategy string, workers int, xs *execStats) (*core.Outcome, time.Duration, error) {
	ex := eq.pool.Get().WithWorkers(workers)
	defer eq.pool.Put(ex)
	var eng discovery.FallibleEngine = experiments.NewRealEngine(eq.space, ex)
	if xs != nil {
		eng = timedFallible{eng: eng, stats: xs}
	}
	run := c.NewRun().WithExecWorkers(workers)
	t0 := time.Now()
	out, err := run.DiscoverStrategyWith(strategy, discovery.NewResilient(eng, discovery.DefaultRetryPolicy))
	return out, time.Since(t0), err
}

func runEngine(ctx context.Context, o options, r *report) error {
	if err := checkRegistry(); err != nil {
		return err
	}
	plan := genEngine(o.seed)
	heapBase := liveHeapMiB()
	var setups []float64
	var qs map[string]*engineQuery
	var populate time.Duration
	for i := 0; i < setupReps; i++ {
		qs = nil // let the previous set-up's data go before generating the next
		runtime.GC()
		t0 := time.Now()
		store, d, err := populateEngine(plan.DataSeed)
		if err != nil {
			return err
		}
		populate = d
		m := map[string]*engineQuery{}
		for _, name := range engineQueries {
			eq, err := setupEngineQuery(name, store)
			if err != nil {
				return err
			}
			m[name] = eq
		}
		setups = append(setups, time.Since(t0).Seconds())
		qs = m
	}
	r.set("setup_s", "s", median(setups))
	for _, eq := range qs {
		if err := eq.measureOracle(); err != nil {
			return err
		}
	}

	workers := runtime.NumCPU()
	type firstOut struct {
		out *core.Outcome
		err error
	}
	firsts := map[key]firstOut{}
	var lat []float64
	var outs []*core.Outcome // the first engineTraceN, for the traced replay
	var subopts []float64
	costUnits := 0.0
	runtime.GC()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	n := 0
	var done []time.Duration // completion times, for the windowed rate
	var oks []bool
	for ; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		k := plan.Seq[n%len(plan.Seq)]
		eq := qs[k.Workload]
		out, d, err := eq.discoverReal(eq.c, k.Strategy, workers, nil)
		done = append(done, time.Since(start))
		oks = append(oks, err == nil && out.Completed)
		r.attempted++
		lat = append(lat, float64(d)/float64(time.Millisecond))
		if len(outs) < engineTraceN {
			outs = append(outs, out)
		}
		if f, ok := firsts[k]; !ok {
			firsts[k] = firstOut{out, err}
		} else if !sameOutcome(replayed{Out: out, Err: err}, replayed{Out: f.out, Err: f.err}) {
			r.violate("%s %s: discovery %d differs from the first run of the same pair", k.Workload, k.Strategy, n)
		}
		if err != nil {
			r.fail("discovery-error")
			continue
		}
		if !out.Completed {
			r.fail("discovery-incomplete")
			continue
		}
		if _, paper := aliases[k.Strategy]; paper {
			subopts = append(subopts, out.TotalCost/eq.oracle)
		}
		costUnits += out.TotalCost
	}
	elapsed := time.Since(start)
	r.set("throughput_ops_s", "ops/s", windowedRate(done, oks, elapsed, 2*time.Second))
	var perPair []string
	for _, q := range engineQueries {
		for _, st := range strategyOrder {
			var l []float64
			for i, d := range lat {
				if k := plan.Seq[i%len(plan.Seq)]; k.Workload == q && k.Strategy == st {
					l = append(l, d)
				}
			}
			perPair = append(perPair, fmt.Sprintf("%s/%s %.1f", q, st, median(l)))
		}
	}
	r.note("median ms per pair: %s", strings.Join(perPair, ", "))
	sorted := append([]float64(nil), lat...) // the quantile helpers sort in place
	p99 := tailQuantile(sorted, 0.99)
	reportLatency(r, median(sorted), tailQuantile(sorted, 0.90).Value, p99.Value, p99, len(lat))
	r.set("loadgen.late_p99_ms", "ms", 0) // closed loop: nothing is due
	r.note("closed loop: %d discoveries, tail percentile read at p%.2f", p99.N, 100*p99.Q)
	r.set("cost_units_per_s", "units/s", costUnits/elapsed.Seconds())
	r.set("subopt_mean", "ratio", mean(subopts))
	smax := 0.0
	for _, v := range subopts {
		smax = max(smax, v)
	}
	r.set("subopt_max", "ratio", smax)

	r.set("heap_mb", "MiB", liveHeapMiB()-heapBase)

	// Gate: every pair's outcome at nproc workers equals a one-worker
	// reference run, and the paper bounds hold against the oracle.
	for k, f := range firsts {
		eq := qs[k.Workload]
		ref, _, err := eq.discoverReal(eq.c, k.Strategy, 1, nil)
		if !sameOutcome(replayed{Out: ref, Err: err}, replayed{Out: f.out, Err: f.err}) {
			r.violate("%s %s: outcome at %d exec workers differs from the 1-worker reference", k.Workload, k.Strategy, workers)
		}
		if f.out == nil || f.err != nil {
			continue
		}
		so := f.out.TotalCost / eq.oracle
		d := float64(eq.d)
		switch k.Strategy {
		case string(core.SpillBound), string(core.AlignedBound):
			if so > d*d+3*d+1e-9 {
				r.violate("%s %s: sub_opt %.4f above D²+3D = %.0f", k.Workload, k.Strategy, so, d*d+3*d)
			}
		case string(core.PlanBouquet):
			if g, ok := eq.c.StrategyGuarantee(k.Strategy); !ok || so > g+1e-9 {
				r.violate("%s planbouquet: sub_opt %.4f above its guarantee %.4f", k.Workload, so, g)
			}
		}
	}
	r.note("gate: %d (query, strategy) pairs checked against 1-worker references", len(firsts))
	if o.trace {
		return traceEngine(plan, qs, populate, workers, outs, lat, r)
	}
	return nil
}

// traceEngine replays the measured run's first discoveries, in order,
// on artifacts compiled over the timing source decorator and with the
// executor behind the timing engine decorator, checks each outcome
// equals the measured one, and attributes the measured latency (ms,
// per discovery) of those discoveries to exec, ess and core.
func traceEngine(plan *enginePlan, qs map[string]*engineQuery, populate time.Duration, workers int, outs []*core.Outcome, measured []float64, r *report) error {
	var statsT, compile, prep time.Duration
	var dp, recostCalls, recostPts, fallbacks int64
	timed := map[string]*core.Compiled{}
	clocks := map[string]*layerClock{}
	for name, eq := range qs {
		statsT += eq.stats
		compile += eq.compile
		prep += eq.prep
		r.set("ess.build_ms."+name, "ms", float64(eq.build)/float64(time.Millisecond))
		prof := eq.space.Profile()
		dp += prof.DPCalls
		recostCalls += prof.RecostCalls
		recostPts += prof.RecostPoints
		fallbacks += prof.Fallbacks
		clocks[name] = &layerClock{}
		c, err := core.CompileSource(timedSource{ContourSource: eq.space, clock: clocks[name]}, core.CompileOptions{})
		if err != nil {
			return err
		}
		if err := prepareAll(c); err != nil {
			return err
		}
		timed[name] = c
	}
	r.set("datagen.populate_s", "s", populate.Seconds())
	r.set("stats.build_s", "s", statsT.Seconds())
	r.set("core.compile_ms", "ms", float64(compile)/float64(time.Millisecond))
	r.set("core.prepare_ms", "ms", float64(prep)/float64(time.Millisecond))
	r.set("ess.dp_calls", "count", float64(dp))
	r.set("ess.recost_calls", "count", float64(recostCalls))
	r.set("ess.fallback_rate", "ratio", ratio{float64(fallbacks), float64(recostPts + fallbacks)}.Value())

	// A plain replay of the same discoveries, right before the traced
	// one, is the base of the tracing overhead.
	n := min(len(outs), engineTraceN)
	plain := time.Duration(0)
	for i := 0; i < n; i++ {
		k := plan.Seq[i%len(plan.Seq)]
		eq := qs[k.Workload]
		_, d, _ := eq.discoverReal(eq.c, k.Strategy, workers, nil)
		plain += d
	}
	var xs execStats
	cs := newCoreStats()
	for i := 0; i < n; i++ {
		k := plan.Seq[i%len(plan.Seq)]
		eq := qs[k.Workload]
		clk := clocks[k.Workload]
		srcBefore, execBefore := clk.Busy, xs.busy()
		out, d, err := eq.discoverReal(timed[k.Workload], k.Strategy, workers, &xs)
		if !sameOutcome(replayed{Out: out, Err: err}, replayed{Out: outs[i]}) && !(err != nil && outs[i] == nil) {
			r.violate("%s %s: traced discovery %d differs from the measured one", k.Workload, k.Strategy, i)
		}
		cs.add(replayed{Out: out, Err: err, Total: d, Source: clk.Busy - srcBefore, Engine: xs.busy() - execBefore, Strategy: k.Strategy})
	}
	cs.report(r)
	if xs.Full.Calls > 0 {
		r.set("exec.full_us", "us", float64(xs.Full.Busy)/float64(xs.Full.Calls)/float64(time.Microsecond))
	}
	if xs.Spill.Calls > 0 {
		r.set("exec.spill_us", "us", float64(xs.Spill.Busy)/float64(xs.Spill.Calls)/float64(time.Microsecond))
	}
	r.set("exec.runs", "count", float64(xs.runs()))
	r.set("exec.kill_frac", "ratio", ratio{float64(xs.Kills), float64(xs.runs())}.Value())
	r.set("exec.cost_units", "units", xs.CostUnits)
	r.note("exec: %d kills / %d executions", xs.Kills, xs.runs())
	r.set("trace.overhead_frac", "ratio", float64(cs.total)/float64(plain)-1)
	us := func(d time.Duration) float64 { return float64(d) / float64(n) / float64(time.Microsecond) }
	r.attribute(mean(measured[:n])*1000, fmt.Sprintf("mean measured latency of the loop's first %d discoveries", n), []layerRow{
		{"exec", us(cs.engine), "executor time behind the engine interface"},
		{"ess", us(cs.source), "contour-source time"},
		{"core", us(cs.self), "discovery minus exec and source time"},
	})
	return nil
}
