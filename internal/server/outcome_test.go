package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// The outcome cache's contract is byte-identity: a hit must serve the
// exact bytes a fresh execution would have produced. Every test here
// compares full response bodies, not parsed fields.

func outcomeStats(t *testing.T, s *Server) core.CacheStats {
	t.Helper()
	st, ok := s.OutcomeCacheStats()
	if !ok {
		t.Fatal("outcome cache unexpectedly disabled")
	}
	return st
}

func TestOutcomeCacheHitServesIdenticalBytes(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	nocacheCfg := testConfig(t)
	nocacheCfg.OutcomeCacheBytes = -1
	fresh := newTestServer(t, nocacheCfg)
	if _, ok := fresh.OutcomeCacheStats(); ok {
		t.Fatal("OutcomeCacheBytes=-1 must disable the cache")
	}

	for _, alg := range []string{"planbouquet", "spillbound", "alignedbound"} {
		req := DiscoverRequest{Workload: "EQ", Algorithm: alg, QA: 7}
		// First request records the key at the doorkeeper, second is
		// admitted into the cache, third is the hit.
		rec1, body1 := postJSON(t, s.Handler(), "/discover", req)
		rec2, body2 := postJSON(t, s.Handler(), "/discover", req)
		before := outcomeStats(t, s)
		rec3, body3 := postJSON(t, s.Handler(), "/discover", req)
		after := outcomeStats(t, s)
		if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK || rec3.Code != http.StatusOK {
			t.Fatalf("%s: statuses %d %d %d", alg, rec1.Code, rec2.Code, rec3.Code)
		}
		if after.Hits != before.Hits+1 {
			t.Fatalf("%s: third request missed the cache: %+v -> %+v", alg, before, after)
		}
		if !bytes.Equal(body1, body2) || !bytes.Equal(body2, body3) {
			t.Fatalf("%s: cached response diverged from original:\n%s\nvs\n%s\nvs\n%s",
				alg, body1, body2, body3)
		}
		_, freshBody := postJSON(t, fresh.Handler(), "/discover", req)
		if !bytes.Equal(body3, freshBody) {
			t.Fatalf("%s: cached response diverged from cache-disabled server:\n%s\nvs\n%s",
				alg, body3, freshBody)
		}
	}

	// Distinct grid points are distinct entries, not aliases.
	_, bodyA := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 3})
	_, bodyB := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 4})
	if bytes.Equal(bodyA, bodyB) {
		t.Fatal("different qa produced identical responses — key aliasing")
	}
}

// Chaos matrix: with chaos armed, the fault substream is part of the
// key. Same seed ⇒ hit with byte-identical (degradation-stamped)
// bytes, equal to what a fresh identically-armed server produces;
// different seed ⇒ miss.
func TestOutcomeCacheChaosMatrix(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t)
		cfg.FaultSeed = 0xC0FFEE
		cfg.FaultRate = 0.05
		// The matrix hammers one workload with deliberate faults; keep
		// the shared breaker out of the experiment.
		cfg.BreakerThreshold = 1 << 20
		return cfg
	}
	s := newTestServer(t, mk())
	freshCfg := mk()
	freshCfg.OutcomeCacheBytes = -1
	fresh := newTestServer(t, freshCfg)

	for _, alg := range []string{"spillbound", "alignedbound"} {
		for _, seed := range []uint64{1, 0xDEAD} {
			req := DiscoverRequest{Workload: "EQ", Algorithm: alg, QA: 9, FaultSeed: seed}
			rec1, body1 := postJSON(t, s.Handler(), "/discover", req) // doorkeeper records
			if rec1.Code != http.StatusOK {
				t.Fatalf("%s seed %#x: status %d: %s", alg, seed, rec1.Code, body1)
			}
			_, body2 := postJSON(t, s.Handler(), "/discover", req) // admitted
			before := outcomeStats(t, s)
			_, body3 := postJSON(t, s.Handler(), "/discover", req) // hit
			if got := outcomeStats(t, s); got.Hits != before.Hits+1 {
				t.Fatalf("%s seed %#x: armed repeat missed: %+v -> %+v", alg, seed, before, got)
			}
			if !bytes.Equal(body1, body2) || !bytes.Equal(body2, body3) {
				t.Fatalf("%s seed %#x: cached chaos response diverged:\n%s\nvs\n%s\nvs\n%s",
					alg, seed, body1, body2, body3)
			}
			_, freshBody := postJSON(t, fresh.Handler(), "/discover", req)
			if !bytes.Equal(body3, freshBody) {
				t.Fatalf("%s seed %#x: cached chaos response != fresh execution:\n%s\nvs\n%s",
					alg, seed, body3, freshBody)
			}
		}
		// A different substream must never be served from another's entry.
		before := outcomeStats(t, s)
		_, _ = postJSON(t, s.Handler(), "/discover",
			DiscoverRequest{Workload: "EQ", Algorithm: alg, QA: 9, FaultSeed: 0xBEEF})
		if got := outcomeStats(t, s); got.Hits != before.Hits {
			t.Fatalf("%s: unseen fault seed hit the cache: %+v -> %+v", alg, before, got)
		}
	}
}

// Lazy mode: the refinement epoch is part of the key, so a refinement
// that moves the surface makes every older entry unreachable — a stale
// hit is structurally impossible, pinned here end to end.
func TestOutcomeCacheLazyEpochInvalidation(t *testing.T) {
	s := newTestServer(t, lazyConfig(t))
	ws, ok := s.getWorkload("EQ")
	if !ok {
		t.Fatal("EQ workload missing")
	}
	req := DiscoverRequest{Workload: "EQ", Algorithm: "spillbound", QA: 7}

	// Drive the same point until its own refinements stop moving the
	// surface; at that fixpoint the entry's key is stable, so repeats
	// pass the doorkeeper, get admitted, and finally hit.
	var body []byte
	hit := false
	for i := 0; i < 12 && !hit; i++ {
		before := outcomeStats(t, s)
		rec, b := postJSON(t, s.Handler(), "/discover", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("attempt %d: status %d: %s", i, rec.Code, b)
		}
		if body != nil && !bytes.Equal(body, b) && outcomeStats(t, s).Hits > before.Hits {
			t.Fatalf("lazy cached response diverged:\n%s\nvs\n%s", body, b)
		}
		hit = outcomeStats(t, s).Hits > before.Hits
		body = b
	}
	if !hit {
		t.Fatal("EQ qa=7 never reached a refinement fixpoint with a cache hit")
	}

	// Bump the epoch by settling new territory elsewhere on the grid.
	epoch := ws.epoch()
	bumped := false
	for qa := int32(11); qa < 36 && !bumped; qa += 4 {
		rec, b := postJSON(t, s.Handler(), "/discover",
			DiscoverRequest{Workload: "EQ", Algorithm: "spillbound", QA: qa})
		if rec.Code != http.StatusOK {
			t.Fatalf("qa %d: status %d: %s", qa, rec.Code, b)
		}
		bumped = ws.epoch() != epoch
	}
	if !bumped {
		t.Fatal("no grid point moved the refinement epoch")
	}

	// The old entry is now unreachable: the repeat request keys at the
	// new epoch and must re-execute, not serve the stale bytes.
	before := outcomeStats(t, s)
	rec, _ := postJSON(t, s.Handler(), "/discover", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-bump status %d", rec.Code)
	}
	if got := outcomeStats(t, s); got.Hits != before.Hits {
		t.Fatalf("stale epoch entry was served: %+v -> %+v", before, got)
	}
}

// The outcome.evict chaos site deterministically drops the entry
// before lookup, so a would-be hit degrades to a re-execution — the
// serving tier's cache-pressure drill.
func TestOutcomeChaosEvictSite(t *testing.T) {
	cfg := testConfig(t)
	cfg.AllowRequestFaults = true
	cfg.BreakerThreshold = 1 << 20
	s := newTestServer(t, cfg)

	// Warm the entry unarmed (rate 0 → no injector, plain insert).
	req := DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 5}
	for i := 0; i < 2; i++ {
		if rec, b := postJSON(t, s.Handler(), "/discover", req); rec.Code != http.StatusOK {
			t.Fatalf("warm %d: status %d: %s", i, rec.Code, b)
		}
	}
	if s.metrics.outcomeChaosEvicts.Load() != 0 {
		t.Fatal("chaos evicts counted before any armed request")
	}
	// Armed requests key a different (seeded) entry; sweep seeds,
	// repeating each three times so the seed's own entry is resident
	// (record, admit) by the time the third arrival's substream can
	// trip outcome.evict on it.
	armed := req
	armed.FaultRate = 0.3
	tripped := false
	for seed := uint64(1); seed < 64 && !tripped; seed++ {
		armed.FaultSeed = seed
		for i := 0; i < 3; i++ {
			if rec, b := postJSON(t, s.Handler(), "/discover", armed); rec.Code != http.StatusOK {
				t.Fatalf("seed %d attempt %d: status %d: %s", seed, i, rec.Code, b)
			}
		}
		tripped = s.metrics.outcomeChaosEvicts.Load() > 0
	}
	if !tripped {
		t.Fatal("outcome.evict never fired across 63 seeds at rate 0.3")
	}
}

// writeJSON must not silently drop encode failures: the static
// fallback body goes out and rqp_encode_errors_total counts it.
func TestEncodeErrorCountedAndFallbackServed(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, make(chan int)) // json: unsupported type
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure served status %d, want 500", rec.Code)
	}
	if rec.Body.String() != encodeFailBody {
		t.Fatalf("encode failure body %q, want the static fallback", rec.Body.String())
	}
	if got := s.metrics.encodeErrors.Load(); got != 1 {
		t.Fatalf("encodeErrors = %d, want 1", got)
	}
	// Second failure of the same kind: counted again, logged once (the
	// once-per-kind latch is internal; the counter is the contract).
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, make(chan int))
	if got := s.metrics.encodeErrors.Load(); got != 2 {
		t.Fatalf("encodeErrors = %d, want 2", got)
	}

	page := metricsPage(t, s)
	if !strings.Contains(page, "rqp_encode_errors_total 2") {
		t.Fatalf("metrics page missing rqp_encode_errors_total:\n%s", page)
	}
}

func metricsPage(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

func TestOutcomeCacheMetricsExposition(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	req := DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 2}
	postJSON(t, s.Handler(), "/discover", req)
	postJSON(t, s.Handler(), "/discover", req)
	page := metricsPage(t, s)
	for _, metric := range []string{
		"rqp_outcome_cache_entries", "rqp_outcome_cache_bytes",
		"rqp_outcome_cache_budget_bytes", "rqp_outcome_cache_hits_total",
		"rqp_outcome_cache_misses_total", "rqp_outcome_cache_inserts_total",
		"rqp_outcome_chaos_evicts_total", "rqp_encode_errors_total",
	} {
		if !strings.Contains(page, metric) {
			t.Fatalf("metrics page missing %s:\n%s", metric, page)
		}
	}

	off := testConfig(t)
	off.OutcomeCacheBytes = -1
	s2 := newTestServer(t, off)
	page2 := metricsPage(t, s2)
	if strings.Contains(page2, "rqp_outcome_cache_") {
		t.Fatal("disabled cache must not emit outcome-cache metrics")
	}
	if !strings.Contains(page2, "rqp_encode_errors_total") {
		t.Fatal("rqp_encode_errors_total must be unconditional")
	}
}

// A NaN fault rate (say, -chaos-rate NaN) resolves to disarmed: the
// outcome cache is a map keyed by the full OutcomeKey, and a NaN field
// would never equal itself, so its entries could be neither hit nor
// deleted.
func TestRequestFaultRateNaNIsDisarmed(t *testing.T) {
	s := &Server{cfg: Config{FaultRate: math.NaN(), AllowRequestFaults: true}}
	for _, req := range []DiscoverRequest{{}, {FaultRate: math.NaN()}} {
		if r := s.requestFaultRate(req); r != 0 {
			t.Fatalf("requestFaultRate(%+v) = %v, want 0", req, r)
		}
		if s.requestInjector(req) != nil {
			t.Fatalf("request %+v armed an injector", req)
		}
	}
}
