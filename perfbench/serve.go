package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/server"
	"repro/internal/workload"
)

// checkRegistry fails the run when the strategy registry no longer
// matches the per-strategy metric names.
func checkRegistry() error {
	if got := core.Strategies(); !slices.Equal(got, strategyOrder) {
		return fmt.Errorf("strategy registry %v differs from the benchmark's %v", got, strategyOrder)
	}
	return nil
}

func quiet(string, ...any) {}

// replica is one server serving on a loopback listener.
type replica struct {
	srv  *server.Server
	ln   net.Listener
	url  string
	stop context.CancelFunc
	done chan error
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve starts srv on ln; shutdown stops it and waits for it to end.
func serve(srv *server.Server, ln net.Listener, url string) *replica {
	ctx, cancel := context.WithCancel(context.Background())
	rp := &replica{srv: srv, ln: ln, url: url, stop: cancel, done: make(chan error, 1)}
	go func() { rp.done <- srv.Serve(ctx, ln) }()
	return rp
}

func (rp *replica) shutdown() error {
	rp.stop()
	return <-rp.done
}

// shutdownAll stops every replica and reports the first error.
func shutdownAll(rps []*replica) error {
	var first error
	for _, rp := range rps {
		if err := rp.shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// waitReady waits for every server's first build.
func waitReady(ctx context.Context, srvs ...*server.Server) error {
	for _, s := range srvs {
		if err := s.WaitReady(ctx); err != nil {
			return fmt.Errorf("waiting for the server to build: %w", err)
		}
	}
	return nil
}

// answers checks /discover replies as they arrive and accumulates the
// answer-quality metrics. It is safe for concurrent use.
type answers struct {
	r    *report
	mu   sync.Mutex
	dims map[string]int
	// bodies holds a hash of the first 200 body per key index, when
	// identity is checked (keys repeat only on serve-hot): a hash, so
	// the benchmark's own heap stays small next to the server's.
	bodies map[int]uint64
	// pbMax is the largest PlanBouquet sub-optimality served per
	// workload; it is checked against the artifact's guarantee at the
	// end, once the guarantees are computed.
	pbMax map[string]float64

	// subopts holds the sub-optimality of each distinct key answered by
	// a paper algorithm (see quality).
	subopts map[int]float64
}

func newAnswers(r *report, trackBodies bool) *answers {
	a := &answers{r: r, dims: map[string]int{}, pbMax: map[string]float64{}, subopts: map[int]float64{}}
	for _, name := range workload.Names() {
		spec, _ := workload.ByName(name)
		a.dims[name] = spec.D
	}
	if trackBodies {
		a.bodies = map[int]uint64{}
	}
	return a
}

// observe checks one reply. counted replies belong to a timed phase:
// they add to attempted, failed and the quality metrics. It returns
// the decoded response of a successful reply, or nil.
func (a *answers) observe(k key, keyIdx int, rep reply, counted bool) *server.DiscoverResponse {
	a.mu.Lock()
	defer a.mu.Unlock()
	if counted {
		a.r.attempted++
	}
	fail := func(kind string) *server.DiscoverResponse {
		if counted {
			a.r.fail(kind)
		}
		return nil
	}
	if rep.Err != nil {
		return fail("transport")
	}
	if rep.Status != http.StatusOK {
		var e server.ErrorResponse
		_ = json.Unmarshal(rep.Body, &e) // an unparsable error body still counts by status
		return fail(fmt.Sprintf("http-%d:%s", rep.Status, e.Kind))
	}
	var resp server.DiscoverResponse
	if err := json.Unmarshal(rep.Body, &resp); err != nil {
		a.r.violate("%+v: 200 body does not decode: %v", k, err)
		return nil
	}
	if resp.Strategy != k.Strategy || resp.QA != k.QA {
		a.r.violate("%+v: answered for strategy %q qa %d", k, resp.Strategy, resp.QA)
	}
	if !resp.Completed {
		return fail("discovery-incomplete")
	}
	if a.bodies != nil {
		if first, ok := a.bodies[keyIdx]; !ok {
			a.bodies[keyIdx] = bodyHash(rep.Body)
		} else if first != bodyHash(rep.Body) {
			a.r.violate("%+v: 200 body changed within the run, now %s", k, rep.Body)
		}
	}
	a.checkBound(k.Workload, k.Strategy, resp.SubOpt)
	if _, paper := aliases[k.Strategy]; paper {
		a.subopts[keyIdx] = resp.SubOpt
	}
	return &resp
}

// bodyHash identifies a response body.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkBound checks the paper's bounds that need no artifact:
// SpillBound and AlignedBound stay within D²+3D. PlanBouquet's bound
// depends on the artifact and is checked by checkPB.
func (a *answers) checkBound(w, strategy string, subopt float64) {
	d := float64(a.dims[w])
	switch strategy {
	case string(core.SpillBound), string(core.AlignedBound):
		if subopt > d*d+3*d+1e-9 {
			a.r.violate("%s %s: sub_opt %.4f above D²+3D = %.0f", w, strategy, subopt, d*d+3*d)
		}
	case string(core.PlanBouquet):
		a.pbMax[w] = math.Max(a.pbMax[w], subopt)
	}
}

// checkPB checks every workload's largest PlanBouquet sub-optimality
// against the guarantee of an eager artifact of the same workload.
func (a *answers) checkPB(artifact func(string) (*core.Compiled, error)) error {
	for w, got := range a.pbMax {
		c, err := artifact(w)
		if err != nil {
			return err
		}
		g, ok := c.StrategyGuarantee(string(core.PlanBouquet))
		if !ok {
			return fmt.Errorf("%s: no PlanBouquet guarantee", w)
		}
		if got > g+1e-9 {
			a.r.violate("%s planbouquet: sub_opt %.4f above its guarantee %.4f", w, got, g)
		}
	}
	return nil
}

// quality reports the answer-quality metrics: the mean and maximum
// sub-optimality over the distinct keys answered by the paper
// algorithms. Per distinct key, because a Zipf stream would otherwise
// weigh a seed's few most popular keys; paper algorithms only, because
// they carry the guarantees these numbers are read against, while the
// heuristics' sub-optimality runs into the thousands on a few points
// and would make the numbers a draw of which points a seed hits.
func (a *answers) quality(r *report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum, max := 0.0, 0.0
	for _, v := range a.subopts {
		sum += v
		max = math.Max(max, v)
	}
	r.set("subopt_mean", "ratio", sum/float64(len(a.subopts)))
	r.set("subopt_max", "ratio", max)
}

// latencies reports an open loop's latency metrics, read from its
// samples: p50, p90 and the tail percentile. A failed request counts as
// missing any latency limit, so it enters the distribution as +Inf.
func latencies(r *report, res openResult) {
	n := len(res.Timings)
	lat := make([]float64, n)
	late := make([]time.Duration, n)
	for i, t := range res.Timings {
		lat[i] = float64(t.Latency) / float64(time.Millisecond)
		if !res.OK[i] {
			lat[i] = math.Inf(1)
		}
		late[i] = t.Late
	}
	tail := tailQuantile(lat, 0.99)
	reportLatency(r, median(lat), tailQuantile(lat, 0.90).Value, tail.Value, tail, n)
	r.set("loadgen.late_p99_ms", "ms", tailQuantile(millis(late), 0.99).Value)
	r.note("open loop: %d requests, tail percentile read at p%.2f; lateness p50 %.3f ms",
		n, 100*tail.Q, median(millis(late)))
}

// reportLatency sets the latency metrics and their sample count.
func reportLatency(r *report, p50, p90, p99 float64, tail quantile, n int) {
	r.set("latency_p50_ms", "ms", p50)
	r.set("latency_p90_ms", "ms", p90)
	r.set("latency_p99_ms", "ms", p99)
	r.set("loadgen.samples", "count", float64(n))
	r.set("loadgen.p99_quantile", "ratio", tail.Q)
}

// expectedBody is the exact response the server encodes for a
// completed discovery by one replica outside ring mode.
func expectedBody(c *core.Compiled, k key, out *core.Outcome) ([]byte, error) {
	resp := server.DiscoverResponse{
		Workload:     k.Workload,
		Strategy:     k.Strategy,
		QA:           k.QA,
		Completed:    out.Completed,
		TotalCost:    out.TotalCost,
		SubOpt:       out.SubOpt(c.Source.CostAt(k.QA)),
		Steps:        len(out.Steps),
		Retries:      out.Retries,
		WastedCost:   out.WastedCost,
		AlignPenalty: out.AlignPenalty,
		Degradations: out.Degradations,
	}
	if _, ok := aliases[k.Strategy]; ok {
		resp.Algorithm = k.Strategy
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// eagerArtifacts builds and caches eager artifacts at a scale, for the
// gates' fresh discoveries and guarantees.
type eagerArtifacts struct {
	scale float64
	arts  map[string]*core.Compiled
}

func (e *eagerArtifacts) get(name string) (*core.Compiled, error) {
	if c, ok := e.arts[name]; ok {
		return c, nil
	}
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	sp, err := spec.SpaceWith(e.scale, ess.Config{})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	c, err := core.Compile(sp, core.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", name, err)
	}
	if e.arts == nil {
		e.arts = map[string]*core.Compiled{}
	}
	e.arts[name] = c
	return c, nil
}

// handlerRW captures one in-process response.
type handlerRW struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *handlerRW) Header() http.Header         { return w.h }
func (w *handlerRW) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *handlerRW) WriteHeader(c int)           { w.code = c }

// serveInProcess sends one body through the handler without a
// connection and returns the reply and the handler's time.
func serveInProcess(ctx context.Context, h http.Handler, body []byte) (reply, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/discover", bytes.NewReader(body))
	if err != nil {
		return reply{}, 0, err
	}
	w := &handlerRW{h: http.Header{}, code: http.StatusOK}
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	return reply{Status: w.code, Body: append([]byte(nil), w.body.Bytes()...)}, d, nil
}

// replayed is one discovery replayed outside the server.
type replayed struct {
	Out      *core.Outcome
	Err      error
	Total    time.Duration
	Source   time.Duration // time in the contour source
	Engine   time.Duration // time in the execution engine
	Strategy string
}

// replaySim runs one simulated discovery on an artifact, timing the
// engine and (when the artifact was compiled over a timedSource whose
// clock is src) the source.
func replaySim(c *core.Compiled, under ess.ContourSource, k key, src *layerClock) replayed {
	var eng layerClock
	srcBefore := time.Duration(0)
	if src != nil {
		srcBefore = src.Busy
	}
	run := c.AcquireRun()
	t0 := time.Now()
	out, err := run.DiscoverStrategyWith(k.Strategy, timedEngine{eng: discovery.NewSimEngine(under, k.QA), clock: &eng})
	d := time.Since(t0)
	core.ReleaseRun(run)
	rp := replayed{Out: out, Err: err, Total: d, Engine: eng.Busy, Strategy: k.Strategy}
	if src != nil {
		rp.Source = src.Busy - srcBefore
	}
	return rp
}

// replayPlain runs one simulated discovery with no decorator, as the
// server does.
func replayPlain(c *core.Compiled, k key) replayed {
	run := c.AcquireRun()
	t0 := time.Now()
	out, err := run.DiscoverStrategy(k.Strategy, k.QA)
	d := time.Since(t0)
	core.ReleaseRun(run)
	return replayed{Out: out, Err: err, Total: d, Strategy: k.Strategy}
}

// coreStats aggregates replayed discoveries into the core metrics.
type coreStats struct {
	byStrategy map[string][]float64 // µs
	steps      int
	n          int
	total      time.Duration
	self       time.Duration // total minus engine and source
	source     time.Duration
	engine     time.Duration
}

func newCoreStats() *coreStats { return &coreStats{byStrategy: map[string][]float64{}} }

func (s *coreStats) add(rp replayed) {
	s.byStrategy[rp.Strategy] = append(s.byStrategy[rp.Strategy], float64(rp.Total)/float64(time.Microsecond))
	if rp.Out != nil {
		s.steps += len(rp.Out.Steps)
	}
	s.n++
	s.total += rp.Total
	s.source += rp.Source
	s.engine += rp.Engine
	s.self += rp.Total - rp.Source - rp.Engine
}

func (s *coreStats) report(r *report) {
	for st, v := range s.byStrategy {
		r.set("core.discover_us."+st, "us", mean(v))
	}
	r.set("core.discoveries", "count", float64(s.n))
	if s.n > 0 {
		r.set("core.steps_per_discovery", "count", float64(s.steps)/float64(s.n))
		r.set("core.self_us", "us", float64(s.self)/float64(s.n)/float64(time.Microsecond))
		r.set("ess.source_us", "us", float64(s.source)/float64(s.n)/float64(time.Microsecond))
	}
}

// sameOutcome reports whether two replays of one key agree.
func sameOutcome(a, b replayed) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return a.Err.Error() == b.Err.Error()
	}
	return reflect.DeepEqual(a.Out, b.Out)
}

// metricDelta is after−before for one /metrics series (0 when absent).
func metricDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
