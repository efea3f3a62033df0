package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/server"
	"repro/internal/workload"
)

// serve-hot: one eager replica with EQ, 4D_Q91 and 6D_Q91 pinned at
// their spec resolutions. After an untimed warm-up, a Zipf stream in
// which almost every request repeats runs an open loop at hotRate and
// then a closed loop on conns connections; the server's hit path and
// the transport do most of the work.

// hotRate is serve-hot's open-loop arrival rate (requests/s): about
// one percent of what the closed loop sustains, so latency is the
// requests' own and not queueing behind the host's stalls.
const hotRate = 200

// setupReps is how many times a run sets up, to report the median.
const setupReps = 3

func hotConfig() server.Config {
	return server.Config{Workloads: hotWorkloads, ESSMode: "eager", Logf: quiet}
}

// newReadyServer creates a server and waits for its pinned builds. It
// collects garbage first, so the time measured is the set-up's own.
func newReadyServer(ctx context.Context, cfg server.Config) (*server.Server, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, s); err != nil {
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// warmHot sends the warm-up set through send, warmArrivals times per
// key in order, on conns callers.
func warmHot(ctx context.Context, plan *hotPlan, send func(body []byte) reply, a *answers) {
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(plan.Warm) && ctx.Err() == nil; j += conns {
				ki := plan.Warm[j]
				k := plan.Keys[ki]
				for n := 0; n < warmArrivals; n++ {
					a.observe(k, ki, send(plan.bodies[ki][0]), false)
				}
			}
		}(w)
	}
	wg.Wait()
}

func runServeHot(ctx context.Context, o options, r *report) error {
	if err := checkRegistry(); err != nil {
		return err
	}
	plan := genHot(o.seed)
	a := newAnswers(r, true)
	heapBase := liveHeapMiB()
	var setups []float64
	var srv *server.Server
	for i := 0; i < setupReps; i++ {
		s, d, err := newReadyServer(ctx, hotConfig())
		if err != nil {
			return err
		}
		srv = s
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", "s", median(setups))

	ln, url, err := listen()
	if err != nil {
		return err
	}
	rp := serve(srv, ln, url)
	c := newClient([]string{url})
	warmHot(ctx, plan, func(b []byte) reply { return c.post(ctx, 0, b) }, a)

	send := func(ctx context.Context, i int) reply {
		q := plan.Stream[i%len(plan.Stream)]
		rep := c.post(ctx, 0, plan.body(q))
		a.observe(plan.Keys[q.Key], int(q.Key), rep, true)
		return rep
	}
	// Each timed phase starts from a fresh collection, so the phases
	// meet the collector at the same points in every run.
	half := time.Duration(o.seconds) * time.Second / 2
	openN := int(hotRate * half.Seconds())
	runtime.GC()
	open := openLoop(ctx, send, hotRate, openN)
	latencies(r, open)
	runtime.GC()
	closed := closedLoop(ctx, send, conns, len(open.OK), len(plan.Stream)-len(open.OK), half)
	r.set("throughput_ops_s", "ops/s", windowedRate(closed.Done, closed.OK, closed.Elapsed, time.Second))
	a.quality(r)
	repeat, respelled := plan.repeatShare(len(open.OK) + len(closed.OK))
	r.note("stream: %.4f of %v requests repeat a key, %.4f of %v repeats re-spelled",
		repeat.Value(), repeat.Base, respelled.Value(), respelled.Base)
	r.set("heap_mb", "MiB", liveHeapMiB()-heapBase)
	c.close()
	if err := rp.shutdown(); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}

	arts := &eagerArtifacts{scale: 1.0}
	if err := a.checkPB(arts.get); err != nil {
		return err
	}
	if err := checkFreshHot(o.seed, plan, a, arts, r); err != nil {
		return err
	}
	if o.trace {
		return traceHot(ctx, plan, openN, r)
	}
	return nil
}

// freshSample is how many served keys the gate re-discovers outside
// the server.
const freshSample = 64

// checkFreshHot re-runs a seeded sample of the served keys as fresh
// in-process discoveries and checks each served body equals the body a
// fresh run produces: a cache never serves an answer a fresh run would
// not give.
func checkFreshHot(seed uint64, plan *hotPlan, a *answers, arts *eagerArtifacts, r *report) error {
	rnd := newRand(seed, streamHot+100)
	checked := 0
	for tries := 0; checked < freshSample && tries < 20*freshSample; tries++ {
		ki := rnd.IntN(len(plan.Keys))
		served, ok := a.bodies[ki]
		if !ok {
			continue
		}
		k := plan.Keys[ki]
		c, err := arts.get(k.Workload)
		if err != nil {
			return err
		}
		out, err := c.NewRun().DiscoverStrategy(k.Strategy, k.QA)
		if err != nil {
			r.violate("%+v: served 200 but a fresh discovery fails: %v", k, err)
			continue
		}
		want, err := expectedBody(c, k, out)
		if err != nil {
			return err
		}
		if bodyHash(want) != served {
			r.violate("%+v: served body differs from the fresh discovery's %s", k, want)
		}
		checked++
	}
	r.note("fresh-discovery gate: %d served keys re-run in-process", checked)
	return nil
}

// traceHot measures serve-hot's layers on two fresh replicas warmed
// like the measured one. A answers the measured open loop's requests
// again, over loopback at the same rate; B then answers them one at a
// time through its handler in-process, and B's outcome-cache misses
// are replayed as plain and as decorated discoveries on identical
// artifacts.
func traceHot(ctx context.Context, plan *hotPlan, openN int, r *report) error {
	builds, err := buildLayers(r, hotWorkloads, 1.0)
	if err != nil {
		return err
	}
	srvA, _, err := newReadyServer(ctx, hotConfig())
	if err != nil {
		return err
	}
	srvB, _, err := newReadyServer(ctx, hotConfig())
	if err != nil {
		return err
	}
	ln, url, err := listen()
	if err != nil {
		return err
	}
	rp := serve(srvA, ln, url)
	c := newClient([]string{url})
	defer c.close()
	scratch := newReport()
	a := newAnswers(scratch, false)
	warmHot(ctx, plan, func(b []byte) reply { return c.post(ctx, 0, b) }, a)
	warmHot(ctx, plan, func(b []byte) reply {
		rep, _, err := serveInProcess(ctx, srvB.Handler(), b)
		if err != nil {
			return reply{Err: err}
		}
		return rep
	}, a)

	seg := plan.Stream[:openN]
	replies := make([]reply, len(seg))
	before, err := c.scrape(ctx, 0)
	if err != nil {
		return err
	}
	runtime.GC()
	open := openLoop(ctx, func(ctx context.Context, i int) reply {
		q := seg[i]
		replies[i] = c.post(ctx, 0, plan.body(q))
		a.observe(plan.Keys[q.Key], int(q.Key), replies[i], true)
		return replies[i]
	}, hotRate, len(seg))
	after, err := c.scrape(ctx, 0)
	if err != nil {
		return err
	}
	if err := rp.shutdown(); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	hand := make([]float64, len(seg)) // µs, in-process on B
	var keys []key                    // B's outcome-cache misses
	hits := 0.0
	for i, q := range seg {
		body := plan.body(q)
		st0, _ := srvB.OutcomeCacheStats()
		repB, d, err := serveInProcess(ctx, srvB.Handler(), body)
		if err != nil {
			return err
		}
		st1, _ := srvB.OutcomeCacheStats()
		hand[i] = float64(d) / float64(time.Microsecond)
		if st1.Misses > st0.Misses {
			keys = append(keys, plan.Keys[q.Key])
		} else {
			hits += hand[i]
		}
		if repB.Status != replies[i].Status || string(repB.Body) != string(replies[i].Body) {
			r.violate("twin replicas answered %s differently", body)
		}
	}
	outcomeLayer(r, before, after)
	artifactLayer(r, before, after)
	handlerLayer(r, open, hand)
	cs, _ := replayCore(r, builds, keys)
	N := float64(len(seg))
	total, rows := openRows(open, hand)
	r.attribute(total, fmt.Sprintf("mean open-loop latency from due time, %d req/s", hotRate), append(rows,
		layerRow{"server", hits / N, "handler time of outcome-cache hits"},
		layerRow{"core", float64(cs.total-cs.source) / N / float64(time.Microsecond), "replayed misses, minus source time"},
		layerRow{"ess", float64(cs.source) / N / float64(time.Microsecond), "contour-source time in replayed misses"},
	))
	r.note("traced open loop: %d requests at %d req/s, %d outcome-cache misses replayed", len(seg), hotRate, len(keys))
	return nil
}

// handlerLayer reports the in-process handler percentiles, and the
// transport's p50: the open loop's loopback p50 from send minus the
// handler's p50 over the same requests.
func handlerLayer(r *report, open openResult, hand []float64) {
	loop, late := openUS(open, false), openUS(open, true)
	for i := range loop {
		loop[i] -= late[i]
	}
	h := append([]float64(nil), hand...)
	r.set("server.handler_p50_us", "us", median(h))
	r.set("server.handler_p99_us", "us", tailQuantile(h, 0.99).Value)
	r.set("server.transport_p50_us", "us", median(loop)-median(h))
	r.note("traced open loop p50 %.1f us from due time", median(openUS(open, false)))
}

// openUS is each open-loop request's latency in µs: from its due
// time, or (late) only its lateness.
func openUS(open openResult, late bool) []float64 {
	out := make([]float64, len(open.Timings))
	for i, t := range open.Timings {
		d := t.Latency
		if late {
			d = t.Late
		}
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// openRows returns the traced open loop's attribution total, its mean
// latency from due time, and the rows every serve workload shares:
// the generator's lateness and the transport, the mean loopback time
// from send minus the in-process handler time of the same requests.
func openRows(open openResult, hand []float64) (float64, []layerRow) {
	total, late := mean(openUS(open, false)), mean(openUS(open, true))
	return total, []layerRow{
		{"loadgen", late, "mean lateness: due time to send"},
		{"transport", total - late - mean(hand), "mean loopback time from send minus in-process handler time"},
	}
}

// outcomeLayer reports the outcome-cache counters between two scrapes.
func outcomeLayer(r *report, before, after map[string]float64) {
	d := func(s string) float64 { return metricDelta(before, after, s) }
	hits := d("rqp_outcome_cache_hits_total")
	lookups := hits + d("rqp_outcome_cache_misses_total")
	r.set("server.outcome_hit_ratio", "ratio", ratio{hits, lookups}.Value())
	r.set("server.outcome_lookups", "count", lookups)
	r.set("server.outcome_inserts", "count", d("rqp_outcome_cache_inserts_total"))
	r.set("server.outcome_evictions", "count", d("rqp_outcome_cache_evictions_total"))
	r.set("server.forwards", "count", d("rqp_forwards_total"))
	r.note("outcome cache: %.0f hits / %.0f lookups", hits, lookups)
}

// artifactLayer reports the compile counters between two scrapes.
func artifactLayer(r *report, before, after map[string]float64) {
	d := func(s string) float64 { return metricDelta(before, after, s) }
	r.set("server.compiles", "count", d("rqp_compiles_total"))
	artHits := d("rqp_cache_hits_total")
	artLookups := artHits + d("rqp_cache_misses_total")
	r.set("core.artifact_hit_ratio", "ratio", ratio{artHits, artLookups}.Value())
	r.set("core.artifact_lookups", "count", artLookups)
	r.note("artifact cache: %.0f hits / %.0f lookups, %.0f evictions",
		artHits, artLookups, d("rqp_cache_evictions_total"))
}

// layerBuild is one workload's artifact built outside the server, in
// plain and source-timed form. For an eager space both forms share the
// space; a lazy workload gets two identical sources, each fed the
// refinements of its own discoveries, as the server feeds its own.
type layerBuild struct {
	plain, timed       *core.Compiled
	plainSrc, timedSrc ess.ContourSource // the undecorated sources
	clock              *layerClock
	costMS             float64 // ess build + compile + strategy preparation
}

// prepareAll runs every strategy's compile-time step on c.
func prepareAll(c *core.Compiled) error {
	for _, s := range strategyOrder {
		if err := c.PrepareStrategy(s); err != nil {
			return fmt.Errorf("preparing %s: %w", s, err)
		}
	}
	return nil
}

// buildLayers builds each workload's eager space and artifact outside
// the server, timing the ess build, compile and strategy preparation,
// and reports the ess and compile metrics (sums over the workloads).
func buildLayers(r *report, names []string, scale float64) (map[string]*layerBuild, error) {
	out := map[string]*layerBuild{}
	var dp, recostCalls, recostPts, fallbacks int64
	compile, prep := 0.0, 0.0
	for _, name := range names {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sp, err := spec.SpaceWith(scale, ess.Config{})
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		t1 := time.Now()
		pc, err := core.Compile(sp, core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := prepareAll(pc); err != nil {
			return nil, err
		}
		t3 := time.Now()
		buildMS := float64(t1.Sub(t0)) / float64(time.Millisecond)
		compile += float64(t2.Sub(t1)) / float64(time.Millisecond)
		prep += float64(t3.Sub(t2)) / float64(time.Millisecond)
		r.set("ess.build_ms."+name, "ms", buildMS)
		prof := sp.Profile()
		dp += prof.DPCalls
		recostCalls += prof.RecostCalls
		recostPts += prof.RecostPoints
		fallbacks += prof.Fallbacks
		b := &layerBuild{plain: pc, plainSrc: sp, timedSrc: sp, clock: &layerClock{},
			costMS: float64(t3.Sub(t0)) / float64(time.Millisecond)}
		if b.timed, err = core.CompileSource(timedSource{ContourSource: sp, clock: b.clock}, core.CompileOptions{}); err != nil {
			return nil, err
		}
		if err := prepareAll(b.timed); err != nil {
			return nil, err
		}
		out[name] = b
	}
	r.set("core.compile_ms", "ms", compile)
	r.set("core.prepare_ms", "ms", prep)
	r.set("ess.dp_calls", "count", float64(dp))
	r.set("ess.recost_calls", "count", float64(recostCalls))
	r.set("ess.fallback_rate", "ratio", ratio{float64(fallbacks), float64(recostPts + fallbacks)}.Value())
	return out, nil
}

// feedLazy folds a discovery's observed selectivities into a lazy
// source the way the server does after each request.
func feedLazy(src ess.ContourSource, out *core.Outcome) {
	ls, ok := src.(*ess.LazySpace)
	if !ok || out == nil {
		return
	}
	observed := false
	for _, st := range out.Steps {
		if st.Dim >= 0 && st.LearnedIdx >= 0 {
			ls.Observe(st.Dim, st.LearnedIdx)
			observed = true
		}
	}
	if observed {
		ls.ApplyRefinements()
	}
}

// replayCore replays keys, in order, as plain and as decorated
// simulated discoveries on the prepared artifacts, checks the two
// agree, reports the core metrics and the decorators' overhead, and
// returns the decorated replays.
func replayCore(r *report, builds map[string]*layerBuild, keys []key) (*coreStats, []replayed) {
	plain := time.Duration(0)
	plainOut := make([]replayed, len(keys))
	for i, k := range keys {
		b := builds[k.Workload]
		rp := replayPlain(b.plain, k)
		feedLazy(b.plainSrc, rp.Out)
		plain += rp.Total
		plainOut[i] = rp
	}
	cs := newCoreStats()
	timed := make([]replayed, len(keys))
	for i, k := range keys {
		b := builds[k.Workload]
		rp := replaySim(b.timed, b.timedSrc, k, b.clock)
		feedLazy(b.timedSrc, rp.Out)
		if !sameOutcome(rp, plainOut[i]) {
			r.violate("%+v: decorated discovery differs from the plain one", k)
		}
		cs.add(rp)
		timed[i] = rp
	}
	cs.report(r)
	if plain > 0 {
		r.set("trace.overhead_frac", "ratio", float64(cs.total)/float64(plain)-1)
	}
	return cs, timed
}
