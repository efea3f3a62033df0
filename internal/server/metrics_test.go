package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func getBody(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Body.String()
}

// GET /metrics exposes queue depth, in-flight count, per-workload
// breaker state, and per-strategy request counters in the Prometheus
// text format, with a series prebuilt for every registered strategy.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig(t))

	// Route two requests to spillbound (one via /discover, one via
	// /mso's algorithm field) and one to parqo via the strategy field.
	for _, req := range []DiscoverRequest{
		{Workload: "EQ", Algorithm: "sb", QA: 7},
		{Workload: "EQ", Strategy: "parqo", QA: 7},
	} {
		if rec, body := postJSON(t, s.Handler(), "/discover", req); rec.Code != http.StatusOK {
			t.Fatalf("discover %+v: status %d: %s", req, rec.Code, body)
		}
	}
	if rec, body := postJSON(t, s.Handler(), "/mso",
		MSORequest{Workload: "EQ", Algorithm: "spillbound", Stride: 3}); rec.Code != http.StatusOK {
		t.Fatalf("mso: status %d: %s", rec.Code, body)
	}

	rec, body := getBody(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE rqp_queue_depth gauge",
		"rqp_queue_depth 0",
		"# TYPE rqp_inflight gauge",
		"rqp_inflight 0",
		"# TYPE rqp_breaker_state gauge",
		`rqp_breaker_state{workload="EQ"} 0`,
		"# TYPE rqp_requests_total counter",
		`rqp_requests_total{strategy="spillbound"} 2`,
		`rqp_requests_total{strategy="parqo"} 1`,
		"# TYPE rqp_cache_entries gauge",
		"rqp_cache_entries 0",
		"# TYPE rqp_cache_hits_total counter",
		"rqp_compiles_total 0",
		"rqp_coalesce_waits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
	// Every registered strategy gets a series, even with zero traffic.
	for _, name := range core.Strategies() {
		if !strings.Contains(body, fmt.Sprintf("rqp_requests_total{strategy=%q}", name)) {
			t.Fatalf("metrics body missing series for %s:\n%s", name, body)
		}
	}
	// Shard-out gauges only appear with a ring configured.
	if strings.Contains(body, "rqp_peer_up") {
		t.Fatalf("single-replica server exposed rqp_peer_up:\n%s", body)
	}
}

// sanitizeLabel escapes exactly the three characters the Prometheus
// text exposition format defines escapes for — backslash, double
// quote, newline — and passes everything else (tabs included) through
// verbatim, unlike %q.
func TestSanitizeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"EQ", "EQ"},
		{"plain-name_2D.Q91", "plain-name_2D.Q91"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"tab\there", "tab\there"},         // tab is legal in a label value
		{"utf8-ключ", "utf8-ключ"},         // multibyte passes through
		{"\\\"\n", `\\\"` + `\n`},          // all three escapes adjacent
		{`a\b"c` + "\nd", `a\\b\"c` + `\nd`},
	}
	for _, tc := range cases {
		if got := sanitizeLabel(tc.in); got != tc.want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// The algorithm and strategy fields route /discover (and algorithm
// routes /mso) through the registry: any registered name or pb/sb/ab
// alias works, unknown names are typed 400s listing the registry, and a
// contradictory algorithm/strategy pair is rejected.
func TestDiscoverStrategyField(t *testing.T) {
	s := newTestServer(t, testConfig(t))

	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "parqo", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("parqo: status %d: %s", rec.Code, body)
	}
	var resp DiscoverResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "parqo" || resp.Algorithm != "" || !resp.Completed {
		t.Fatalf("parqo response %+v", resp)
	}

	// Case-insensitive resolution; paper strategies echo both fields.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "PlanBouquet", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("PlanBouquet: status %d: %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "planbouquet" || resp.Algorithm != "planbouquet" {
		t.Fatalf("PlanBouquet response %+v", resp)
	}

	// Agreeing algorithm alias + strategy is fine.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", Strategy: "spillbound", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("agreeing pair: status %d: %s", rec.Code, body)
	}

	// Unknown strategy: 400 listing the registry.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "zzz", QA: 7})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown strategy: status %d: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBadRequest || !strings.Contains(er.Error, "spillbound") {
		t.Fatalf("unknown strategy error %+v must list the registry", er)
	}

	// Contradictory pair: 400.
	rec, _ = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "pb", Strategy: "spillbound", QA: 7})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("conflicting pair: status %d", rec.Code)
	}

	// Aliases resolve case-insensitively, in either field.
	for _, tc := range []struct {
		req  DiscoverRequest
		want string
	}{
		{DiscoverRequest{Workload: "EQ", Algorithm: "PB", QA: 7}, "planbouquet"},
		{DiscoverRequest{Workload: "EQ", Algorithm: "Sb", QA: 7}, "spillbound"},
		{DiscoverRequest{Workload: "EQ", Strategy: "AB", QA: 7}, "alignedbound"},
	} {
		rec, body = postJSON(t, s.Handler(), "/discover", tc.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", tc.req, rec.Code, body)
		}
		resp = DiscoverResponse{}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Strategy != tc.want || resp.Algorithm != tc.want {
			t.Fatalf("%+v: response %+v, want %s", tc.req, resp, tc.want)
		}
	}

	// The algorithm field takes any registry name; heuristics get no
	// algorithm echo.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "parqo", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("algorithm parqo: status %d: %s", rec.Code, body)
	}
	resp = DiscoverResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "parqo" || resp.Algorithm != "" || !resp.Completed {
		t.Fatalf("algorithm parqo response %+v", resp)
	}

	// Both fields name the same policy, so the bodies are identical.
	_, viaAlg := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 4})
	_, viaStrat := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "spillbound", QA: 4})
	if !bytes.Equal(viaAlg, viaStrat) {
		t.Fatalf("algorithm sb and strategy spillbound bodies differ:\n%s\n%s", viaAlg, viaStrat)
	}

	// /mso resolves through the same aliases and registry: paper
	// algorithms report their bound, heuristics a zero guarantee.
	for _, tc := range []struct {
		alg, want string
		bounded   bool
	}{
		{"pb", "planbouquet", true},
		{"sb", "spillbound", true},
		{"ab", "alignedbound", true},
		{"robustmap", "robustmap", false},
	} {
		rec, body = postJSON(t, s.Handler(), "/mso",
			MSORequest{Workload: "EQ", Algorithm: tc.alg, Stride: 3})
		if rec.Code != http.StatusOK {
			t.Fatalf("/mso %s: status %d: %s", tc.alg, rec.Code, body)
		}
		var mr MSOResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Algorithm != tc.want || (mr.Guarantee > 0) != tc.bounded || mr.MSO < 1 {
			t.Fatalf("/mso %s: response %+v", tc.alg, mr)
		}
	}
	rec, body = postJSON(t, s.Handler(), "/mso",
		MSORequest{Workload: "EQ", Algorithm: "zzz", Stride: 3})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("/mso unknown: status %d: %s", rec.Code, body)
	}
	er = ErrorResponse{}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBadRequest || !strings.Contains(er.Error, "adaptiveswitch") {
		t.Fatalf("/mso unknown error %+v must list the registry", er)
	}
}

// A half-open breaker must admit exactly one of any number of
// concurrent probes, and the slot must be recycled correctly for each
// possible probe outcome.
func TestBreakerHalfOpenRace(t *testing.T) {
	cases := []struct {
		name      string
		probes    int
		settle    func(b *breaker) // report the admitted probe's outcome
		wantState string
		readmit   bool // a second probe is admitted after settling
	}{
		{"probe-succeeds", 16, func(b *breaker) { b.Report(true) }, "closed", true},
		{"probe-fails", 16, func(b *breaker) { b.Report(false) }, "open", false},
		{"probe-canceled", 16, func(b *breaker) { b.Cancel() }, "half-open", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(9000, 0)}
			b := newBreaker(1, time.Second, clk.Now)
			b.Report(false) // threshold 1: trips open
			if b.State() != "open" {
				t.Fatalf("pre-state %s, want open", b.State())
			}
			clk.Advance(2 * time.Second) // cooldown elapsed

			var admitted atomic.Int64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < tc.probes; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if ok, _ := b.Allow(); ok {
						admitted.Add(1)
					}
				}()
			}
			close(start)
			wg.Wait()
			if got := admitted.Load(); got != 1 {
				t.Fatalf("%d of %d concurrent probes admitted, want exactly 1", got, tc.probes)
			}

			tc.settle(b)
			if b.State() != tc.wantState {
				t.Fatalf("settled state %s, want %s", b.State(), tc.wantState)
			}
			if ok, _ := b.Allow(); ok != tc.readmit {
				t.Fatalf("post-settle Allow=%v, want %v", ok, tc.readmit)
			}
		})
	}
}
