package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/workload"
)

// serve-cold: two replicas on a consistent-hash ring, 6D_Q91 pinned on
// a lazy (demand-driven) contour source, every other registered spec an
// on-demand tenant compiled on its first request. Every request is a
// fresh key, sent to the replicas in turn, so about half take the ring
// hop. There is no warm-up: the closed loop starts cold, with the lazy
// source's settle phase and every tenant's first compile.
//
// The timed phases run with the default compile-cache budget. Under a
// budget that makes every tenant visit recompile, the open loop's
// latencies were set by a few compiles of 100-400ms each and varied by
// half from run to run with the same code; the traced run measures the
// evict-and-recompile path on its own, on a third ring under
// coldCacheBytes.

const (
	// coldRate is serve-cold's open-loop arrival rate (requests/s),
	// under a tenth of what the warm ring sustains.
	coldRate = 50
	// coldClosedN is the closed loop's fixed work: about half the run
	// on the reference box, cold start included.
	coldClosedN = 6000
	// coldCacheBytes is each replica's compile-cache budget on the
	// traced run's cache-pressure ring. The tenants' artifacts take
	// ≈2.3 MiB at scale 1.0, about half of it on each replica; at a
	// quarter MiB every visit to a tenant finds it evicted and
	// recompiles.
	coldCacheBytes = 256 << 10
	// coldPressureN is how many stream requests the cache-pressure ring
	// answers (its tenant requests only).
	coldPressureN = 800
	// coldSetupReps: a lazy ring builds in milliseconds, so the median
	// needs more set-ups than the other workloads take.
	coldSetupReps = 101
	// hopReps is how many cached repeats each side of the hop
	// measurement sends.
	hopReps = 300
)

func coldConfig(urls []string, self int, cacheBytes int64) server.Config {
	return server.Config{
		Workloads:  []string{coldPinned},
		ESSMode:    "lazy",
		CacheBytes: cacheBytes,
		Peers:      urls,
		SelfURL:    urls[self],
		Logf:       quiet,
	}
}

// coldRing is one pair of ring replicas.
type coldRing struct {
	srvs []*server.Server
	rps  []*replica
	urls []string
}

// newColdRing creates both replicas on fresh loopback listeners, waits
// for their pinned builds, and returns the time that took. The
// replicas do not serve until start.
func newColdRing(ctx context.Context, lns []net.Listener, urls []string, cacheBytes int64) (*coldRing, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	ring := &coldRing{urls: urls}
	for i := range lns {
		s, err := server.New(coldConfig(urls, i, cacheBytes))
		if err != nil {
			return nil, 0, err
		}
		ring.srvs = append(ring.srvs, s)
	}
	if err := waitReady(ctx, ring.srvs...); err != nil {
		return nil, 0, err
	}
	return ring, time.Since(t0), nil
}

func (cr *coldRing) start(lns []net.Listener) {
	for i, s := range cr.srvs {
		cr.rps = append(cr.rps, serve(s, lns[i], cr.urls[i]))
	}
}

func (cr *coldRing) stop() error { return shutdownAll(cr.rps) }

func listenPair() ([]net.Listener, []string, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, url)
	}
	return lns, urls, nil
}

// startColdRing listens, builds and starts a fresh ring.
func startColdRing(ctx context.Context, cacheBytes int64) (*coldRing, error) {
	lns, urls, err := listenPair()
	if err != nil {
		return nil, err
	}
	ring, _, err := newColdRing(ctx, lns, urls, cacheBytes)
	if err != nil {
		return nil, err
	}
	ring.start(lns)
	return ring, nil
}

func runServeCold(ctx context.Context, o options, r *report) error {
	if err := checkRegistry(); err != nil {
		return err
	}
	plan := genCold(o.seed)
	a := newAnswers(r, false)
	heapBase := liveHeapMiB()
	lns, urls, err := listenPair()
	if err != nil {
		return err
	}
	var setups []float64
	var ring *coldRing
	for i := 0; i < coldSetupReps; i++ {
		cr, d, err := newColdRing(ctx, lns, urls, 0)
		if err != nil {
			return err
		}
		ring = cr
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", "s", median(setups))
	ring.start(lns)
	c := newClient(urls)
	before, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	send := func(ctx context.Context, i int) reply {
		q := plan.Stream[i]
		rep := c.post(ctx, q.Replica, q.Body)
		a.observe(q.Key, i, rep, true)
		return rep
	}
	// The closed loop runs first, from the cold start, over a fixed
	// number of requests, so the open loop that follows always meets
	// the same lazy-surface and cache state.
	openTime := time.Duration(o.seconds) * time.Second / 2
	openN := int(coldRate * openTime.Seconds())
	runtime.GC()
	closed := closedLoop(ctx, send, conns, 0, coldClosedN, runDeadline)
	r.set("throughput_ops_s", "ops/s", closed.rate())
	runtime.GC()
	open := openLoop(ctx, func(ctx context.Context, i int) reply { return send(ctx, coldClosedN+i) }, coldRate, openN)
	latencies(r, open)
	a.quality(r)
	r.set("heap_mb", "MiB", liveHeapMiB()-heapBase)
	after, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	d := func(s string) float64 { return metricDelta(before, after, s) }
	r.note("compiles %.0f, artifact-cache hits %.0f misses %.0f evictions %.0f, forwards %.0f, failovers %.0f",
		d("rqp_compiles_total"), d("rqp_cache_hits_total"), d("rqp_cache_misses_total"),
		d("rqp_cache_evictions_total"), d("rqp_forwards_total"), d("rqp_failovers_total"))
	c.close()
	if err := ring.stop(); err != nil {
		return fmt.Errorf("stopping the ring: %w", err)
	}
	arts := &eagerArtifacts{scale: 1.0}
	if err := a.checkPB(arts.get); err != nil {
		return err
	}
	if o.trace {
		return traceCold(ctx, plan, openN, r)
	}
	return nil
}

// traceCold measures serve-cold's layers on two fresh rings in the
// measured configuration. Both take the closed phase's requests one at
// a time, ring A over loopback and ring B through its handlers
// in-process, while the plain and timed artifacts replay the same
// discoveries, so the replays start the measured segment in the
// servers' state. Ring A then answers the measured open loop's requests
// again at the same rate, ring B answers them in-process, and each is
// replayed as a plain and as a decorated discovery on identical
// artifacts. A third ring, under coldCacheBytes, measures the
// evict-and-recompile path.
func traceCold(ctx context.Context, plan *coldPlan, openN int, r *report) error {
	warm, seg := plan.Stream[:coldClosedN], plan.Stream[coldClosedN:coldClosedN+openN]
	var tenants []string
	seen := map[string]bool{}
	for _, q := range plan.Stream[:coldClosedN+openN] {
		if w := q.Key.Workload; w != coldPinned && !seen[w] {
			seen[w] = true
			tenants = append(tenants, w)
		}
	}
	builds, err := buildLayers(r, tenants, 1.0)
	if err != nil {
		return err
	}
	tenantCost := 0.0
	for _, w := range tenants {
		tenantCost += builds[w].costMS
	}
	if len(tenants) > 0 {
		tenantCost /= float64(len(tenants))
	}
	r.set("core.compile_ms", "ms", tenantCost)
	lazy, err := buildLazyTwin(r, coldPinned)
	if err != nil {
		return err
	}
	builds[coldPinned] = lazy

	ringA, err := startColdRing(ctx, 0)
	if err != nil {
		return err
	}
	ringB, err := startColdRing(ctx, 0)
	if err != nil {
		return err
	}
	c := newClient(ringA.urls)
	defer c.close()
	scratch := newReport()
	a := newAnswers(scratch, false)
	for i, q := range warm {
		served := a.observe(q.Key, i, c.post(ctx, q.Replica, q.Body), false)
		if _, _, err := serveInProcess(ctx, ringB.srvs[q.Replica].Handler(), q.Body); err != nil {
			return err
		}
		// The twins run every discovery themselves: a lazy source
		// settles the points its discoveries visit, and an artifact's
		// memos fill as it serves, so both must see the server's work.
		b := builds[q.Key.Workload]
		rp := replayPlain(b.plain, q.Key)
		feedLazy(b.plainSrc, rp.Out)
		tp := replaySim(b.timed, b.timedSrc, q.Key, b.clock)
		feedLazy(b.timedSrc, tp.Out)
		if !sameOutcome(rp, tp) {
			r.violate("%+v: decorated discovery differs from the plain one", q.Key)
		}
		if served != nil && (rp.Out == nil || rp.Out.TotalCost != served.TotalCost || len(rp.Out.Steps) != served.Steps) {
			r.violate("%+v: replayed discovery (%v) differs from the served one (cost %v)", q.Key, rp.Out, served.TotalCost)
		}
	}

	before, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	served := make([]*server.DiscoverResponse, len(seg))
	runtime.GC()
	open := openLoop(ctx, func(ctx context.Context, i int) reply {
		q := seg[i]
		rep := c.post(ctx, q.Replica, q.Body)
		served[i] = a.observe(q.Key, coldClosedN+i, rep, true)
		return rep
	}, coldRate, len(seg))
	after, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	hand := make([]float64, len(seg))
	for i, q := range seg {
		_, d, err := serveInProcess(ctx, ringB.srvs[q.Replica].Handler(), q.Body)
		if err != nil {
			return err
		}
		hand[i] = float64(d) / float64(time.Microsecond)
	}
	outcomeLayer(r, before, after)
	lazyLayer(r, before, after)
	handlerLayer(r, open, hand)
	hop, err := ringHop(ctx, c, seg, served)
	if err != nil {
		return err
	}
	r.set("ring.hop_p50_us", "us", hop)
	if err := ringA.stop(); err != nil {
		return err
	}
	if err := ringB.stop(); err != nil {
		return err
	}

	keys := make([]key, len(seg))
	for i, q := range seg {
		keys[i] = q.Key
	}
	cs, timed := replayCore(r, builds, keys)
	// The open loop may overlap two pinned requests and fold their
	// refinements in either order, so only the stateless tenants'
	// answers are compared here; the closed phase compared the pinned
	// ones.
	for i, rp := range timed {
		if s := served[i]; s != nil && keys[i].Workload != coldPinned && (rp.Out == nil || rp.Out.TotalCost != s.TotalCost || len(rp.Out.Steps) != s.Steps) {
			r.violate("%+v: replayed discovery (%v) differs from the served one (cost %v)", keys[i], rp.Out, s.TotalCost)
		}
	}
	if err := pressureCold(ctx, plan, r); err != nil {
		return err
	}

	signUS, bySQL := signTime(seg)
	r.set("query.sign_us", "us", signUS)
	N := float64(len(seg))
	d := func(s string) float64 { return metricDelta(before, after, s) }
	total, rows := openRows(open, hand)
	r.attribute(total, fmt.Sprintf("mean open-loop latency from due time, %d req/s", coldRate), append(rows,
		layerRow{"server", signUS * bySQL / N, "query signatures of sql-addressed requests"},
		layerRow{"ring", d("rqp_forwards_total") * hop / N, "forwards times the measured hop"},
		layerRow{"compile", d("rqp_compiles_total") * tenantCost * 1000 / N, "tenant compiles times build+compile+prepare"},
		layerRow{"core", float64(cs.total-cs.source) / N / float64(time.Microsecond), "replayed discoveries, minus source time"},
		layerRow{"ess", float64(cs.source) / N / float64(time.Microsecond), "contour-source time in replayed discoveries"},
	))
	r.note("traced open loop: %d requests at %d req/s on %d tenants plus %s", len(seg), coldRate, len(tenants), coldPinned)
	return nil
}

// pressureCold sends the tenant requests among the stream's first
// coldPressureN, one at a time, to a fresh ring whose compile caches
// hold less than the tenants' artifacts, and reports the compile and
// artifact-cache counters: tenants evict and recompile.
func pressureCold(ctx context.Context, plan *coldPlan, r *report) error {
	ring, err := startColdRing(ctx, coldCacheBytes)
	if err != nil {
		return err
	}
	c := newClient(ring.urls)
	defer c.close()
	before, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	a := newAnswers(newReport(), false)
	for i, q := range plan.Stream[:coldPressureN] {
		if q.Key.Workload != coldPinned {
			a.observe(q.Key, i, c.post(ctx, q.Replica, q.Body), false)
		}
	}
	after, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	artifactLayer(r, before, after)
	return ring.stop()
}

// buildLazyTwin builds two identical lazy sources for a pinned lazy
// workload, one plain and one behind the timing decorator.
func buildLazyTwin(r *report, name string) (*layerBuild, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plainSrc, err := spec.LazySpaceWith(1.0, ess.Config{})
	if err != nil {
		return nil, err
	}
	r.set("ess.build_ms."+name, "ms", float64(time.Since(t0))/float64(time.Millisecond))
	timedSrc, err := spec.LazySpaceWith(1.0, ess.Config{})
	if err != nil {
		return nil, err
	}
	b := &layerBuild{plainSrc: plainSrc, timedSrc: timedSrc, clock: &layerClock{}}
	if b.plain, err = core.CompileSource(plainSrc, core.CompileOptions{}); err != nil {
		return nil, err
	}
	if b.timed, err = core.CompileSource(timedSource{ContourSource: timedSrc, clock: b.clock}, core.CompileOptions{}); err != nil {
		return nil, err
	}
	return b, nil
}

// lazyLayer reports the lazy source's counters between two scrapes.
func lazyLayer(r *report, before, after map[string]float64) {
	series := func(name string) string { return fmt.Sprintf("%s{workload=%q}", name, coldPinned) }
	d := func(name string) float64 { return metricDelta(before, after, series(name)) }
	hits := d("rqp_lazy_contour_hits_total")
	r.set("ess.lazy_settled", "count", after[series("rqp_lazy_settled_points")])
	r.set("ess.lazy_contour_hit_ratio", "ratio", ratio{hits, hits + d("rqp_lazy_contour_misses_total")}.Value())
	r.set("ess.refine_rounds", "count", d("rqp_lazy_refinement_rounds_total"))
	r.set("ess.refined_points", "count", metricDelta(before, after, "rqp_refined_points_total"))
	r.set("ess.epoch", "count", after[series("rqp_lazy_epoch")])
}

// ringHop measures the proxy hop: the same cached repeat of a pinned
// (lazy, so never cached on the forwarding side) key sent to its owner
// and to the other replica, hopReps times each, alternating. It returns
// the difference of the two medians in µs.
func ringHop(ctx context.Context, c *client, seg []coldReq, served []*server.DiscoverResponse) (float64, error) {
	for i, q := range seg {
		if q.Key.Workload != coldPinned || served[i] == nil {
			continue
		}
		owner := -1
		for j, u := range c.urls {
			if u == served[i].ServedBy {
				owner = j
			}
		}
		if owner < 0 {
			return 0, fmt.Errorf("answer served by %q, not a ring member", served[i].ServedBy)
		}
		for n := 0; n < warmArrivals; n++ {
			c.post(ctx, owner, q.Body)
		}
		var own, other []float64
		for n := 0; n < hopReps; n++ {
			for _, side := range []int{owner, 1 - owner} {
				t0 := time.Now()
				rep := c.post(ctx, side, q.Body)
				us := float64(time.Since(t0)) / float64(time.Microsecond)
				if rep.Err != nil || rep.Status != http.StatusOK {
					return 0, fmt.Errorf("hop probe: status %d, %v", rep.Status, rep.Err)
				}
				if side == owner {
					own = append(own, us)
				} else {
					other = append(other, us)
				}
			}
		}
		return median(other) - median(own), nil
	}
	return 0, fmt.Errorf("no answered %s request to probe the hop with", coldPinned)
}

// signTime is the mean time query.Sign takes on the segment's sql
// texts, and how many requests carried one.
func signTime(seg []coldReq) (us, n float64) {
	var total time.Duration
	for _, q := range seg {
		if !q.BySQL {
			continue
		}
		spec, _ := workload.ByName(q.Key.Workload)
		sql := compactSQL(spec.SQL)
		t0 := time.Now()
		_, err := query.Sign(sql)
		total += time.Since(t0)
		if err == nil {
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(total) / n / float64(time.Microsecond), n
}
