// Package server exposes cached discovery artifacts over a hardened
// long-running HTTP service: compile once, then serve Discover/MSO
// requests concurrently, each bounded by a per-request deadline,
// admitted through a bounded queue with load shedding, guarded by a
// per-workload circuit breaker, and (optionally) warm-started from
// crash-safe ESS snapshots. Rejections are always typed JSON errors —
// the service degrades by refusing work, never by wedging or returning
// a silently wrong answer.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Workloads names the workload.ByName specs to compile and serve
	// (default: the EQ running example).
	Workloads []string
	// Scale is the catalog scale factor (default 1.0).
	Scale float64
	// Res overrides the per-dimension grid resolution (0 = spec default).
	Res int
	// ESSMode selects the contour provider: "eager" (default) sweeps the
	// full grid at build time; "lazy" serves from a demand-driven source
	// that settles points as discoveries touch them, folds observed
	// selectivities back into the surface after each request, and
	// persists sparse snapshots with refinement deltas.
	ESSMode string

	// MaxConcurrent bounds discoveries running at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are shed with 429 + Retry-After (default 16).
	MaxQueue int
	// MaxExecWorkers caps the per-request exec_workers knob — the
	// intra-query morsel parallelism a discovery's real executions may
	// claim (default 8, hard-capped at exec.MaxWorkers). Requests asking
	// for more are clamped, mirroring the timeout cap: over-asking is a
	// preference, not an error.
	MaxExecWorkers int

	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default 30s); MaxTimeout caps client-supplied deadlines
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// BreakerThreshold is the consecutive-failure count that trips a
	// workload's circuit open (default 5); BreakerCooldown is the open
	// interval before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SnapshotDir, when set, enables the crash-safe artifact cache:
	// snapshots are warm-loaded (strictly verified) at startup, corrupt
	// ones quarantined aside and rebuilt, and fresh builds persisted
	// atomically.
	SnapshotDir string

	// FaultSeed/FaultRate arm chaos mode: every request runs with a
	// deterministic injector substream forked from (FaultSeed,
	// request fault_seed). Zero rate disarms chaos entirely.
	FaultSeed uint64
	FaultRate float64
	// AllowRequestFaults additionally honors request-supplied
	// fault_rate overrides while FaultRate is zero. Off by default: a
	// disarmed server ignores client chaos knobs, so an unauthenticated
	// client cannot inject faults that trip the shared breaker.
	AllowRequestFaults bool

	// ExecLatency simulates the per-execution latency of a remote
	// engine (discovery.Latent), interruptible by request deadlines.
	ExecLatency time.Duration

	// DrainTimeout bounds the graceful drain after the serve context is
	// canceled (default 10s).
	DrainTimeout time.Duration

	// PprofAddr, when set, serves net/http/pprof on a second listener
	// bound to that address (e.g. "127.0.0.1:6060"). The profiling
	// endpoint is kept off the service mux so operators can firewall it
	// separately from client traffic; empty disables it.
	PprofAddr string

	// CacheBytes budgets the signature-keyed on-demand artifact cache
	// (default 256 MiB). Pinned workloads are not cached — they are
	// resident for the server's lifetime.
	CacheBytes int64

	// OutcomeCacheBytes budgets the deterministic outcome cache that
	// serves repeat /discover requests from pre-encoded response bytes
	// (0 = 64 MiB default, negative disables the cache entirely).
	// Outcomes are deterministic given the full request key, so the
	// cache is semantically transparent: a hit is byte-identical to the
	// execution it replaced.
	OutcomeCacheBytes int64

	// Peers is the static replica set for shard-out mode: base URLs
	// (scheme://host:port, no trailing slash) including this replica's
	// own SelfURL. Query signatures are consistent-hashed across the
	// set and /discover requests proxied to their owner, with hedged
	// failover down the ring on timeout or refusal. Empty disables
	// sharding entirely.
	Peers []string
	// SelfURL identifies this replica within Peers; required (and must
	// appear in Peers) when Peers is non-empty.
	SelfURL string
	// ForwardTimeout bounds one proxy attempt to a peer before hedging
	// to the next replica (default 5s).
	ForwardTimeout time.Duration
	// HealthInterval is how long a peer health verdict is trusted
	// before re-probing (default 1s).
	HealthInterval time.Duration

	// Now is the clock the circuit breakers read (default time.Now);
	// tests inject a fake to drive cooldowns deterministically.
	Now func() time.Time
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"EQ"}
	}
	if c.ESSMode == "" {
		c.ESSMode = "eager"
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxExecWorkers <= 0 {
		c.MaxExecWorkers = 8
	}
	if c.MaxExecWorkers > exec.MaxWorkers {
		c.MaxExecWorkers = exec.MaxWorkers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 5 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// workloadState is one served workload: its spec, lazily built
// artifact, and circuit breaker.
type workloadState struct {
	name    string
	spec    workload.Spec
	breaker *breaker

	// onDemand marks a tenant admitted after startup: its artifact
	// lives in the signature-keyed cache (evictable, compiled through
	// the coalescing flight group), not in this struct. sigKey is the
	// full artifact-signature hash — the cache and shard-ring key.
	onDemand bool
	sigKey   uint64

	mu          sync.RWMutex
	compiled    *core.Compiled
	buildErr    error
	quarantined string // path a corrupt snapshot was renamed to
	warmLoaded  bool

	// lazy is set when the workload serves from a demand-driven source
	// (Config.ESSMode "lazy"): the server feeds observed selectivities
	// back into it after each discovery and appends refinement deltas to
	// its snapshot.
	lazy *ess.LazySpace
	// persistMu serializes delta appends; persistMark is the watermark
	// of point values already on disk (nil when snapshotting is off or
	// the base save failed).
	persistMu   sync.Mutex
	persistMark map[int32]bool
	snapPath    string

	ready chan struct{} // closed when the first build/load attempt ends
}

func (ws *workloadState) artifact() (*core.Compiled, error) {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	return ws.compiled, ws.buildErr
}

// isLazy reports whether the workload serves from a demand-driven
// (online-refining) contour source.
func (ws *workloadState) isLazy() bool {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	return ws.lazy != nil
}

// epoch returns the workload's ESS refinement epoch: the lazy surface's
// current epoch, or 0 — the frozen forever value — for eager workloads.
// Outcome-cache keys carry it so online refinement invalidates every
// outcome computed against the older contour surface.
func (ws *workloadState) epoch() uint64 {
	ws.mu.RLock()
	lz := ws.lazy
	ws.mu.RUnlock()
	if lz == nil {
		return 0
	}
	return lz.Epoch()
}

func (ws *workloadState) status() string {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	switch {
	case ws.compiled != nil:
		return "ready"
	case ws.buildErr != nil:
		return "failed"
	default:
		return "building"
	}
}

// Server is the discovery service.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	sem    chan struct{}
	queued atomic.Int64
	faults *faultinject.Injector // base chaos injector (nil when disarmed)

	// wmu guards the workloads map: pinned entries are inserted in New
	// and never removed; on-demand tenants are added by resolveWorkload
	// under the write lock. order lists the pinned names (immutable).
	wmu       sync.RWMutex
	workloads map[string]*workloadState
	order     []string
	metrics   *metrics

	// cache holds on-demand artifacts keyed by signature; flights
	// coalesces concurrent compiles of one signature; compiles counts
	// completed compiles per workload name (string → *atomic.Int64).
	cache    *core.ArtifactCache
	flights  *flightGroup
	compiles sync.Map
	// sigIdx maps pure-SQL signature hashes to registered spec names,
	// for requests that identify their workload by SQL text.
	sigIdx map[uint64][]string

	// ring and peers are the shard-out state (nil when Peers is empty).
	ring  *hashRing
	peers *peerSet

	// outcomes is the deterministic outcome cache (nil when disabled):
	// full-request-keyed, storing each served outcome's exact
	// response bytes so a repeat request bypasses routing, admission,
	// execution, and re-encoding. front is the request-identity table
	// in front of it (see front.go): byte-identical repeats skip JSON
	// decoding and key derivation too. encodeErrSeen tracks which
	// encode error kinds have been logged (once per kind).
	outcomes      *core.OutcomeCache
	front         frontTable
	encodeErrSeen sync.Map

	draining atomic.Bool
	inflight sync.WaitGroup
}

// New creates a server for the configured workloads and starts
// compiling (or warm-loading) their artifacts in the background. The
// server can accept connections immediately: requests for workloads
// still compiling get 503 + Retry-After, and /readyz turns 200 once
// every artifact is up.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		workloads: make(map[string]*workloadState, len(cfg.Workloads)),
		metrics:   newMetrics(),
		cache:     core.NewArtifactCache(cfg.CacheBytes),
		flights:   newFlightGroup(),
		sigIdx:    buildSigIndex(),
	}
	if cfg.OutcomeCacheBytes >= 0 {
		s.outcomes = core.NewOutcomeCache(cfg.OutcomeCacheBytes)
	}
	if cfg.ESSMode != "eager" && cfg.ESSMode != "lazy" {
		return nil, fmt.Errorf("server: unknown ESS mode %q (want eager or lazy)", cfg.ESSMode)
	}
	if cfg.FaultRate > 0 {
		s.faults = faultinject.NewUniform(cfg.FaultSeed, cfg.FaultRate)
	}
	if len(cfg.Peers) > 0 {
		self := false
		for _, p := range cfg.Peers {
			if p == cfg.SelfURL {
				self = true
				break
			}
		}
		if !self {
			return nil, fmt.Errorf("server: SelfURL %q must appear in Peers", cfg.SelfURL)
		}
		s.ring = newHashRing(cfg.Peers)
		s.peers = newPeerSet(cfg.SelfURL, cfg.HealthInterval, cfg.Now, cfg.ForwardTimeout)
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: snapshot dir: %w", err)
		}
		if orphans := ess.SweepTemps(cfg.SnapshotDir); len(orphans) > 0 {
			cfg.Logf("server: swept %d orphaned snapshot temp(s)", len(orphans))
		}
	}
	for _, name := range cfg.Workloads {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		sig, err := s.signatureFor(spec)
		if err != nil {
			return nil, fmt.Errorf("server: signing %s: %w", name, err)
		}
		ws := &workloadState{
			name: name, spec: spec, sigKey: sig.Hash,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
			ready:   make(chan struct{}),
		}
		s.workloads[name] = ws
		s.order = append(s.order, name)
		go s.buildWorkload(ws)
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /discover", s.handleDiscover)
	s.mux.HandleFunc("POST /mso", s.handleMSO)
	return s, nil
}

// buildWorkload warm-loads the workload's snapshot if one exists (and
// verifies it strictly), quarantining and rebuilding on any corruption,
// then persists fresh builds atomically. In lazy mode the snapshot is
// the sparse base frame plus refinement deltas; a torn delta tail from
// a crashed append quarantines and rebuilds exactly like a corrupt
// base.
func (s *Server) buildWorkload(ws *workloadState) {
	defer close(ws.ready)
	if s.cfg.ESSMode == "lazy" {
		s.buildLazyWorkload(ws)
		return
	}
	var snapPath string
	if s.cfg.SnapshotDir != "" {
		snapPath = filepath.Join(s.cfg.SnapshotDir, ws.name+".snap")
		if sp, ok := s.warmLoad(ws, snapPath); ok {
			s.install(ws, sp, true)
			return
		}
	}
	// Shard-out warm fan-out: a restarted replica rebuilds from its
	// peers' snapshot streams before paying a cold build.
	if s.ring != nil {
		if sp := s.fetchPeerSnapshot(ws); sp != nil {
			if snapPath != "" {
				if err := sp.SaveFileWith(snapPath, s.faults); err != nil {
					s.cfg.Logf("server: persisting %s fan-out snapshot: %v", ws.name, err)
				}
			}
			s.install(ws, sp, true)
			return
		}
	}
	sp, err := ws.spec.SpaceWith(s.cfg.Scale, ess.Config{Res: s.cfg.Res})
	if err != nil {
		ws.mu.Lock()
		ws.buildErr = err
		ws.mu.Unlock()
		s.cfg.Logf("server: building %s: %v", ws.name, err)
		return
	}
	if snapPath != "" {
		if err := sp.SaveFileWith(snapPath, s.faults); err != nil {
			s.cfg.Logf("server: persisting %s snapshot: %v (serving from memory)", ws.name, err)
		}
	}
	s.install(ws, sp, false)
}

// buildLazyWorkload is buildWorkload's demand-driven arm. Lazy
// snapshots live beside the eager ones under a distinct suffix, so
// flipping -ess-mode never quarantines the other mode's valid artifact.
func (s *Server) buildLazyWorkload(ws *workloadState) {
	var snapPath string
	if s.cfg.SnapshotDir != "" {
		snapPath = filepath.Join(s.cfg.SnapshotDir, ws.name+".lazy.snap")
		if ls, ok := s.warmLoadLazy(ws, snapPath); ok {
			s.installLazy(ws, ls, snapPath, true)
			return
		}
	}
	ls, err := ws.spec.LazySpaceWith(s.cfg.Scale, ess.Config{Res: s.cfg.Res})
	if err != nil {
		ws.mu.Lock()
		ws.buildErr = err
		ws.mu.Unlock()
		s.cfg.Logf("server: building %s (lazy): %v", ws.name, err)
		return
	}
	if snapPath != "" {
		if err := ls.SaveFileWith(snapPath, s.faults); err != nil {
			s.cfg.Logf("server: persisting %s lazy snapshot: %v (serving from memory)", ws.name, err)
			snapPath = "" // no base on disk: delta appends would be orphaned
		}
	}
	s.installLazy(ws, ls, snapPath, false)
}

// warmLoadLazy mirrors warmLoad for sparse snapshots: strict
// verification, a clean miss on absence or a res mismatch, and
// quarantine-and-rebuild on anything else — including the ErrCorrupt a
// torn refinement-delta tail produces.
func (s *Server) warmLoadLazy(ws *workloadState, path string) (*ess.LazySpace, bool) {
	q, err := ws.spec.Load(s.cfg.Scale)
	if err != nil {
		return nil, false
	}
	env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
	model := cost.NewModel(cost.DefaultParams())
	ls, err := ess.LoadLazyFile(path, q, env, model,
		ess.Config{Res: s.cfg.Res}, ess.LoadOptions{Strict: true})
	if err == nil {
		wantRes := s.cfg.Res
		if wantRes <= 0 {
			wantRes = ws.spec.Res
		}
		if ls.Geometry().Res != wantRes {
			s.cfg.Logf("server: %s lazy snapshot has res %d, config wants %d; rebuilding",
				ws.name, ls.Geometry().Res, wantRes)
			return nil, false
		}
		s.cfg.Logf("server: %s warm-loaded (lazy, %d settled) from %s",
			ws.name, ls.Profile().Settled, path)
		return ls, true
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, false
	}
	qpath := path + ".quarantined"
	if rerr := os.Rename(path, qpath); rerr != nil {
		qpath = ""
	}
	ws.mu.Lock()
	ws.quarantined = qpath
	ws.mu.Unlock()
	s.cfg.Logf("server: %s lazy snapshot rejected (%v); quarantined to %q, rebuilding", ws.name, err, qpath)
	return nil, false
}

// warmLoad tries the snapshot at path with strict verification. A
// missing file is a clean miss, as is a structurally valid snapshot
// built at a different grid resolution than the one configured (a stale
// artifact from before a -res change — the rebuild overwrites it);
// anything else quarantines the file aside (rename, preserving the
// evidence) and reports a miss so the caller rebuilds.
func (s *Server) warmLoad(ws *workloadState, path string) (*ess.Space, bool) {
	q, err := ws.spec.Load(s.cfg.Scale)
	if err != nil {
		return nil, false
	}
	env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
	model := cost.NewModel(cost.DefaultParams())
	sp, err := ess.LoadFile(path, q, env, model, ess.LoadOptions{Strict: true})
	if err == nil {
		// Strict recosting already pins the snapshot to this scale's
		// catalog; the grid resolution must also match what we would
		// build, or the configured -res would silently be ignored.
		wantRes := s.cfg.Res
		if wantRes <= 0 {
			wantRes = ws.spec.Res
		}
		if sp.Grid.Res != wantRes {
			s.cfg.Logf("server: %s snapshot has res %d, config wants %d; rebuilding",
				ws.name, sp.Grid.Res, wantRes)
			return nil, false
		}
		s.cfg.Logf("server: %s warm-loaded from %s", ws.name, path)
		return sp, true
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, false
	}
	qpath := path + ".quarantined"
	if rerr := os.Rename(path, qpath); rerr != nil {
		qpath = ""
	}
	ws.mu.Lock()
	ws.quarantined = qpath
	ws.mu.Unlock()
	s.cfg.Logf("server: %s snapshot rejected (%v); quarantined to %q, rebuilding", ws.name, err, qpath)
	return nil, false
}

// install compiles the space and publishes the artifact.
func (s *Server) install(ws *workloadState, sp *ess.Space, warm bool) {
	c, err := core.Compile(sp, core.CompileOptions{})
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err != nil {
		ws.buildErr = err
		return
	}
	ws.compiled = c
	ws.warmLoaded = warm
}

// installLazy compiles over the demand-driven source and publishes the
// artifact plus the delta-persistence watermark (primed to what the
// base frame on disk already holds).
func (s *Server) installLazy(ws *workloadState, ls *ess.LazySpace, snapPath string, warm bool) {
	c, err := core.CompileSource(ls, core.CompileOptions{})
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err != nil {
		ws.buildErr = err
		return
	}
	ws.compiled = c
	ws.warmLoaded = warm
	ws.lazy = ls
	ws.snapPath = snapPath
	if snapPath != "" {
		ws.persistMark = make(map[int32]bool)
		ls.DeltaSince(ws.persistMark) // the base frame holds these already
	}
}

// feedRefinements folds one discovery's observed selectivities back
// into a lazy workload's surface: every spill step that learned (or
// bounded) a dimension index becomes an Observe, queued refinements are
// applied, and newly settled or refined point values are appended to
// the snapshot as a delta. Non-lazy workloads and nil outcomes are
// no-ops.
func (s *Server) feedRefinements(ws *workloadState, out *discovery.Outcome) {
	if ws.lazy == nil || out == nil {
		return
	}
	observed := false
	for _, st := range out.Steps {
		if st.Dim >= 0 && st.LearnedIdx >= 0 {
			ws.lazy.Observe(st.Dim, st.LearnedIdx)
			observed = true
			s.metrics.refineObs.Add(1)
		}
	}
	if observed {
		if n := ws.lazy.ApplyRefinements(); n > 0 {
			s.metrics.refinedPoints.Add(int64(n))
		}
	}
	if ws.snapPath == "" {
		return
	}
	ws.persistMu.Lock()
	defer ws.persistMu.Unlock()
	d := ws.lazy.DeltaSince(ws.persistMark)
	if d == nil {
		return
	}
	if err := ws.lazy.AppendDeltaFileWith(ws.snapPath, d, s.faults); err != nil {
		s.cfg.Logf("server: appending %s refinement delta: %v (next load will rebuild)", ws.name, err)
	}
}

// WaitReady blocks until every workload's first build/load attempt has
// finished (successfully or not), or the context expires.
func (s *Server) WaitReady(ctx context.Context) error {
	for _, name := range s.order {
		ws, _ := s.getWorkload(name)
		select {
		case <-ws.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until ctx is canceled (SIGTERM via
// signal.NotifyContext in the CLI), then drains gracefully: readiness
// flips to 503 so load balancers stop routing, in-flight requests run
// to completion, and the listener closes — bounded by DrainTimeout.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	var pprofSrv *http.Server
	if s.cfg.PprofAddr != "" {
		pl, err := net.Listen("tcp", s.cfg.PprofAddr)
		if err != nil {
			return fmt.Errorf("server: pprof listen: %w", err)
		}
		pprofSrv = &http.Server{Handler: PprofHandler()}
		s.cfg.Logf("server: pprof listening on http://%s/debug/pprof/", pl.Addr())
		go pprofSrv.Serve(pl)
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if pprofSrv != nil {
			// Diagnostics only: close immediately, no graceful drain.
			pprofSrv.Close()
		}
		s.draining.Store(true)
		s.cfg.Logf("server: draining (waiting for in-flight requests, max %s)", s.cfg.DrainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(shCtx)
		// Shutdown waits for connections; also wait on the handler
		// WaitGroup explicitly so the drain guarantee holds even for
		// handlers not tied to a tracked connection, bounded by the
		// same budget.
		idle := make(chan struct{})
		go func() { s.inflight.Wait(); close(idle) }()
		select {
		case <-idle:
		case <-shCtx.Done():
			if err == nil {
				err = shCtx.Err()
			}
		}
		done <- err
	}()
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	s.cfg.Logf("server: drained cleanly")
	return nil
}

// Draining reports whether the server has begun its graceful drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// PprofHandler returns the net/http/pprof handler tree served on the
// PprofAddr listener. It is built on a private mux (not
// http.DefaultServeMux) so nothing leaks onto the service handler.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ---- wire types ----

// DiscoverRequest is the POST /discover body. Algorithm and Strategy
// both select the discovery policy by strategy-registry name, or by the
// pb/sb/ab aliases of the paper algorithms. Setting both to different
// policies is a 400; setting neither defaults to SpillBound.
type DiscoverRequest struct {
	Workload string `json:"workload"`
	// SQL identifies the workload by query text instead of (or in
	// addition to) Workload: the server canonicalizes it to a
	// signature and resolves the registered spec. When several specs
	// share one SQL body (the Q91 family), Workload must disambiguate.
	SQL       string  `json:"sql,omitempty"`
	Algorithm string  `json:"algorithm"`
	Strategy  string  `json:"strategy,omitempty"`
	QA        int32   `json:"qa"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// ExecWorkers asks for intra-query morsel parallelism on the run's
	// real executions (0 = sequential; clamped to Config.MaxExecWorkers;
	// negative is a 400). Worker count never changes any cost in the
	// response — only wall-clock latency.
	ExecWorkers int `json:"exec_workers,omitempty"`
}

// DiscoverResponse is the POST /discover result: the outcome ledger of
// one discovery. On 504 it carries the partial outcome with Aborted
// set to the abort cause.
type DiscoverResponse struct {
	Workload     string                  `json:"workload"`
	Algorithm    string                  `json:"algorithm"`
	Strategy     string                  `json:"strategy,omitempty"`
	QA           int32                   `json:"qa"`
	Completed    bool                    `json:"completed"`
	TotalCost    float64                 `json:"total_cost"`
	SubOpt       float64                 `json:"sub_opt"`
	Steps        int                     `json:"steps"`
	Retries      int                     `json:"retries"`
	WastedCost   float64                 `json:"wasted_cost"`
	AlignPenalty float64                 `json:"align_penalty,omitempty"`
	Degradations []discovery.Degradation `json:"degradations,omitempty"`
	Aborted      string                  `json:"aborted,omitempty"`
	// ServedBy is the replica that ran the discovery (shard-out mode
	// only). Degraded is set to "failover" when the request did not
	// run on its signature's preferred owner — one or more owners were
	// down and the ring (or the local fallback) absorbed the request.
	ServedBy string `json:"served_by,omitempty"`
	Degraded string `json:"degraded,omitempty"`
}

// MSORequest is the POST /mso body.
type MSORequest struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Stride    int    `json:"stride,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// MSOResponse is the POST /mso result.
type MSOResponse struct {
	Workload  string  `json:"workload"`
	Algorithm string  `json:"algorithm"`
	MSO       float64 `json:"mso"`
	ASO       float64 `json:"aso"`
	ArgMax    int32   `json:"arg_max"`
	Points    int     `json:"points"`
	Guarantee float64 `json:"guarantee"`
}

// ErrorResponse is the body of every non-200 reply: a typed, machine-
// readable rejection.
type ErrorResponse struct {
	Error        string `json:"error"`
	Kind         string `json:"kind"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Rejection kinds.
const (
	KindBadRequest  = "bad-request"
	KindNotFound    = "not-found"
	KindBuilding    = "building"
	KindBuildFailed = "build-failed"
	KindDraining    = "draining"
	KindShed        = "shed"
	KindBreakerOpen = "breaker-open"
	KindDeadline    = "deadline"
	KindEngineFault = "engine-fault"
)

// WorkloadInfo is one entry of GET /workloads.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Status      string `json:"status"`
	Breaker     string `json:"breaker"`
	D           int    `json:"d,omitempty"`
	Points      int    `json:"points,omitempty"`
	Mode        string `json:"mode,omitempty"`
	Settled     int    `json:"settled,omitempty"`
	WarmLoaded  bool   `json:"warm_loaded,omitempty"`
	Quarantined string `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ---- handlers ----

// jsonBuf pairs a reusable encode buffer with an encoder bound to it
// for its whole pooled lifetime, so the serve path pays neither a
// fresh buffer nor a fresh json.Encoder per response. An encoder that
// has returned an error is poisoned (encoding/json latches the first
// error), so error paths drop the pair instead of re-pooling it.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// maxPooledBuf caps the capacity of buffers returned to the pools; a
// one-off giant response must not pin its buffer for the process
// lifetime.
const maxPooledBuf = 1 << 16

func releaseJSONBuf(jb *jsonBuf) {
	if jb.buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(jb)
	}
}

// encodeFailBody is the static fallback written when a response value
// itself fails to encode — the one case writeJSON cannot report
// through its own machinery.
const encodeFailBody = "{\"error\":\"response encoding failed\",\"kind\":\"encode-error\"}\n"

// reqBuf is a pooled request-body reader: the buffer and its size
// limiter live together so a request read costs no allocations at all.
type reqBuf struct {
	buf bytes.Buffer
	lr  io.LimitedReader
}

// maxRequestBytes bounds a request body; beyond it the read fails.
const maxRequestBytes = 1 << 20

// reqBufPool recycles request-body read buffers: reading through a
// pooled buffer plus json.Unmarshal replaces the per-request
// json.NewDecoder and its internal scratch allocations.
var reqBufPool = sync.Pool{New: func() any { return new(reqBuf) }}

// readRequestBody reads the bounded request body into a pooled buffer
// and returns it. The caller must releaseReqBuf when done with the
// bytes (they alias the pooled buffer).
func readRequestBody(r *http.Request) (*reqBuf, error) {
	rb := reqBufPool.Get().(*reqBuf)
	rb.buf.Reset()
	rb.lr.R = r.Body
	rb.lr.N = maxRequestBytes + 1
	if _, err := rb.buf.ReadFrom(&rb.lr); err != nil {
		releaseReqBuf(rb)
		return nil, err
	}
	if rb.lr.N <= 0 {
		releaseReqBuf(rb)
		return nil, fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
	}
	return rb, nil
}

func releaseReqBuf(rb *reqBuf) {
	rb.lr.R = nil
	if rb.buf.Cap() <= maxPooledBuf {
		reqBufPool.Put(rb)
	}
}

// decodeRequest reads the bounded JSON request body into a pooled
// buffer and unmarshals it into v.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	rb, err := readRequestBody(r)
	if err != nil {
		return err
	}
	err = json.Unmarshal(rb.buf.Bytes(), v)
	releaseReqBuf(rb)
	return err
}

// encodeBody encodes v into a pooled buffer. On failure it counts the
// encode error, logs once per error kind, and returns ok=false with
// the poisoned pair already discarded.
func (s *Server) encodeBody(v any) (*jsonBuf, bool) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		s.countEncodeError("marshal", err)
		return nil, false
	}
	return jb, true
}

// contentTypeJSON is the shared Content-Type value slice; assigning it
// directly (instead of Header().Set) avoids a per-response allocation.
// http.Header values are never mutated by the stack, only replaced.
var contentTypeJSON = []string{"application/json"}

// writeBytes writes a fully encoded JSON body — the zero-copy exit for
// both cached responses and pooled-buffer encodes. Write failures
// (client gone mid-body) are counted, not silently dropped.
func (s *Server) writeBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.countEncodeError("write", err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	jb, ok := s.encodeBody(v)
	if !ok {
		s.writeBytes(w, http.StatusInternalServerError, []byte(encodeFailBody))
		return
	}
	s.writeBytes(w, code, jb.buf.Bytes())
	releaseJSONBuf(jb)
}

// countEncodeError records one dropped/failed response encode in the
// rqp_encode_errors_total counter and logs the first occurrence of
// each (stage, error type) kind — enough to diagnose without letting a
// disconnect-happy client flood the log.
func (s *Server) countEncodeError(stage string, err error) {
	s.metrics.encodeErrors.Add(1)
	kind := fmt.Sprintf("%s:%T", stage, err)
	if _, seen := s.encodeErrSeen.LoadOrStore(kind, true); !seen {
		s.cfg.Logf("server: response %s error (%s): %v (logged once per kind)", stage, kind, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, kind, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, code, ErrorResponse{
		Error: msg, Kind: kind, RetryAfterMS: retryAfter.Milliseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyz struct {
		Ready     bool              `json:"ready"`
		Draining  bool              `json:"draining,omitempty"`
		Workloads map[string]string `json:"workloads"`
	}
	rz := readyz{Ready: true, Draining: s.draining.Load(), Workloads: map[string]string{}}
	// Readiness tracks the pinned workloads only: on-demand tenants
	// compile on first request and never gate the replica's readiness.
	for _, name := range s.order {
		ws, _ := s.getWorkload(name)
		st := ws.status()
		rz.Workloads[name] = st
		if st != "ready" {
			rz.Ready = false
		}
	}
	if rz.Draining {
		rz.Ready = false
	}
	code := http.StatusOK
	if !rz.Ready {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, rz)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	states := s.snapshotWorkloads()
	out := make([]WorkloadInfo, 0, len(states))
	for _, ws := range states {
		info := WorkloadInfo{Name: ws.name, Status: ws.status(), Breaker: ws.breaker.State()}
		if ws.onDemand {
			// On-demand tenants live in the signature-keyed cache.
			info.Mode = "on-demand"
			if art, ok := s.cache.Peek(ws.sigKey); ok {
				info.Status = "resident"
				g := art.Source.Geometry()
				info.D = g.D
				info.Points = g.NumPoints()
			} else {
				info.Status = "evicted"
			}
			out = append(out, info)
			continue
		}
		ws.mu.RLock()
		if ws.compiled != nil {
			g := ws.compiled.Source.Geometry()
			info.D = g.D
			info.Points = g.NumPoints()
			info.WarmLoaded = ws.warmLoaded
			prof := ws.compiled.Source.Profile()
			info.Mode = prof.Mode
			info.Settled = prof.Settled
		}
		if ws.buildErr != nil {
			info.Error = ws.buildErr.Error()
		}
		info.Quarantined = ws.quarantined
		ws.mu.RUnlock()
		out = append(out, info)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// admit enters the bounded admission queue: a free slot is taken
// immediately; otherwise the request waits as one of at most MaxQueue
// queued requests, or is shed. The returned release func is non-nil
// exactly when admission succeeded.
func (s *Server) admit(ctx context.Context) (release func(), shed bool, err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, false, nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, true, nil
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		return func() { <-s.sem }, false, nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return nil, false, ctx.Err()
	}
}

// requestCtx derives the per-request deadline context.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// requestInjector builds the deterministic per-request fault substream:
// a pure function of (server seed, request seed), so any request can be
// replayed bit for bit by re-sending the same fault_seed. Request-
// supplied rates are only honored when the operator armed chaos
// (FaultRate > 0 or AllowRequestFaults); otherwise a client could
// inject faults at will and trip the shared breaker for everyone.
func (s *Server) requestInjector(req DiscoverRequest) *faultinject.Injector {
	rate := s.requestFaultRate(req)
	if rate <= 0 {
		return nil
	}
	return faultinject.NewUniform(s.cfg.FaultSeed, rate).Fork(req.FaultSeed)
}

// requestFaultRate resolves the fault rate a request's injector will
// run at (0 = disarmed). Split out of requestInjector because the
// outcome-cache key needs the same number: two requests with the same
// seed but different effective rates see different fault schedules and
// must never share a cache entry.
func (s *Server) requestFaultRate(req DiscoverRequest) float64 {
	rate := s.cfg.FaultRate
	if req.FaultRate > 0 && (s.faults != nil || s.cfg.AllowRequestFaults) {
		rate = req.FaultRate
	}
	return rate
}

// outcomeKey assembles the full deterministic identity of one discover
// request: artifact signature (SQL shape ⊕ EPPs ⊕ res ⊕ scale),
// workload and strategy names, grid point, clamped worker count, fault
// substream parameters (zero when disarmed), the artifact's λ, and the
// workload's refinement epoch. Equal keys ⇒ deep-equal outcomes ⇒
// byte-identical responses — the invariant the outcome cache rests on.
func (s *Server) outcomeKey(ws *workloadState, strategy string, req DiscoverRequest, workers int, armed bool) core.OutcomeKey {
	key := core.OutcomeKey{
		SigHash:     ws.sigKey,
		Workload:    ws.name,
		Strategy:    strategy,
		QA:          int(req.QA),
		ExecWorkers: workers,
		// The server always compiles with CompileOptions{} → DefaultLambda;
		// keying it explicitly keeps entries honest if that ever changes.
		Lambda: core.DefaultLambda,
		Epoch:  ws.epoch(),
	}
	if armed {
		key.FaultSeed = req.FaultSeed
		key.FaultRate = s.requestFaultRate(req)
	}
	return key
}

// policyAliases are the short wire spellings of the paper algorithms.
var policyAliases = map[string]string{
	"pb": core.PlanBouquet,
	"sb": core.SpillBound,
	"ab": core.AlignedBound,
}

// resolvePolicy maps a request's algorithm and strategy fields onto one
// registry name. Each field accepts an alias or any registered strategy
// name, case-insensitively; leaving both empty selects SpillBound. When
// both are set they must agree, because a request naming two different
// policies is a contradiction, not a preference order.
func resolvePolicy(algField, stratField string) (string, error) {
	resolved := ""
	for _, field := range [2]string{algField, stratField} {
		if field == "" {
			continue
		}
		name := strings.ToLower(field)
		if alias, ok := policyAliases[name]; ok {
			name = alias
		}
		st, ok := core.StrategyByName(name)
		if !ok {
			return "", fmt.Errorf("unknown strategy %q (registered: %s)",
				field, strings.Join(core.StrategyNamesSorted(), ", "))
		}
		if resolved != "" && st.Name() != resolved {
			return "", fmt.Errorf("conflicting algorithm %q and strategy %q", algField, stratField)
		}
		resolved = st.Name()
	}
	if resolved == "" {
		return core.SpillBound, nil
	}
	return resolved, nil
}

// lookup resolves the workload to a resident artifact or writes the
// rejection. On-demand tenants only resolve here when their artifact
// is cache-resident (lookup never triggers a compile — it backs the
// MSO path, whose grid sweep assumes a built artifact).
func (s *Server) lookup(w http.ResponseWriter, name string) (*workloadState, *core.Compiled, bool) {
	ws, ok := s.getWorkload(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, KindNotFound, fmt.Sprintf("unknown workload %q", name), 0)
		return nil, nil, false
	}
	if ws.onDemand {
		if c, ok := s.cache.Get(ws.sigKey); ok {
			return ws, c, true
		}
		s.writeError(w, http.StatusServiceUnavailable, KindBuilding,
			fmt.Sprintf("on-demand workload %s is not resident; issue a discover first", name), time.Second)
		return nil, nil, false
	}
	c, err := ws.artifact()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, KindBuildFailed,
			fmt.Sprintf("workload %s failed to build: %v", name, err), 0)
		return nil, nil, false
	}
	if c == nil {
		s.writeError(w, http.StatusServiceUnavailable, KindBuilding,
			fmt.Sprintf("workload %s still compiling", name), time.Second)
		return nil, nil, false
	}
	return ws, c, true
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer s.metrics.track()()
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, KindDraining, "server draining", time.Second)
		return
	}
	rb, err := readRequestBody(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, KindBadRequest, "invalid JSON body: "+err.Error(), 0)
		return
	}
	body := rb.buf.Bytes()

	// Request-identity fast path: byte-identical repeats of an unarmed
	// request resolve to their learned outcome key without JSON
	// decoding. The epoch is re-stamped from the live workload state,
	// so a refinement that moved the surface turns this into a miss.
	if s.outcomes != nil && r.Header.Get(failoverHeader) == "" {
		if e := s.front.get(body); e != nil {
			key := e.key
			key.Epoch = e.ws.epoch()
			if c, hit := s.outcomes.Get(key); hit {
				s.metrics.countRequest(e.strategy)
				s.writeBytes(w, http.StatusOK, c.Body)
				releaseReqBuf(rb)
				return
			}
		}
	}

	var req DiscoverRequest
	err = json.Unmarshal(body, &req)
	if err != nil {
		releaseReqBuf(rb)
		s.writeError(w, http.StatusBadRequest, KindBadRequest, "invalid JSON body: "+err.Error(), 0)
		return
	}
	// The identity miss path may learn this body at the end of the
	// request, long after the pooled buffer is recycled — copy it now,
	// but only when the identity is learnable at all: armed requests
	// must re-roll their chaos sites on every arrival and are never
	// admitted to the front table.
	var learnBody []byte
	if s.outcomes != nil && s.front.n.Load() < frontCap &&
		r.Header.Get(failoverHeader) == "" && s.requestFaultRate(req) <= 0 {
		learnBody = append([]byte(nil), body...)
	}
	releaseReqBuf(rb)
	name, err := resolvePolicy(req.Algorithm, req.Strategy)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, KindBadRequest, err.Error(), 0)
		return
	}
	ws, ok := s.resolveWorkload(w, &req)
	if !ok {
		return
	}
	in := s.requestInjector(req)

	if req.ExecWorkers < 0 {
		s.writeError(w, http.StatusBadRequest, KindBadRequest,
			fmt.Sprintf("exec_workers %d must be non-negative", req.ExecWorkers), 0)
		return
	}
	workers := req.ExecWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > s.cfg.MaxExecWorkers {
		workers = s.cfg.MaxExecWorkers
	}

	// Deterministic outcome cache: consult before routing, the breaker,
	// admission, and dispatch — a hit writes the exact bytes of the
	// execution this request would have repeated, zero-copy. Failover
	// retries are excluded: their responses carry degradation stamps
	// that depend on which replicas happened to be down.
	var key core.OutcomeKey
	cacheable := s.outcomes != nil && r.Header.Get(failoverHeader) == ""
	if cacheable {
		key = s.outcomeKey(ws, name, req, workers, in != nil)
		if in.Trip(faultinject.SiteOutcomeEvict) {
			if s.outcomes.Evict(key) {
				s.metrics.outcomeChaosEvicts.Add(1)
			}
		}
		if e, hit := s.outcomes.Get(key); hit {
			s.metrics.countRequest(name)
			s.writeBytes(w, http.StatusOK, e.Body)
			return
		}
	}

	// Shard-out routing: proxy to the signature's owner replica unless
	// we are it (or this request was already forwarded to us). A
	// cleanly forwarded 200 is cacheable here too, but only for eager,
	// unarmed requests: a lazy owner refines its surface independently
	// of our epoch counter, and an armed owner's schedule depends on
	// its own chaos configuration — either could diverge from the key.
	var cacheForwarded func([]byte)
	if cacheable && !ws.isLazy() && in == nil {
		kf := key
		cacheForwarded = func(respBody []byte) {
			if _, admitted := s.outcomes.Put(kf, &core.CachedOutcome{Body: respBody}); admitted && learnBody != nil {
				s.front.put(&frontEntry{body: learnBody, ws: ws, strategy: name, key: kf})
			}
		}
	}
	handled, hops := s.routeDiscover(w, r, req, ws.sigKey, in, cacheForwarded)
	if handled {
		return
	}
	failover := s.ring != nil && (hops > 0 || r.Header.Get(failoverHeader) != "")

	var c *core.Compiled
	if !ws.onDemand {
		if _, c, ok = s.lookup(w, ws.name); !ok {
			return
		}
		if req.QA < 0 || int(req.QA) >= c.Source.Geometry().NumPoints() {
			s.writeError(w, http.StatusBadRequest, KindBadRequest,
				fmt.Sprintf("qa %d outside grid [0, %d)", req.QA, c.Source.Geometry().NumPoints()), 0)
			return
		}
	}
	s.metrics.countRequest(name)

	if allowed, wait := ws.breaker.Allow(); !allowed {
		s.writeError(w, http.StatusServiceUnavailable, KindBreakerOpen,
			fmt.Sprintf("workload %s circuit open", req.Workload), wait)
		return
	}
	// Past this point the breaker was told a request is in flight (it
	// may be the half-open probe): every path below must end in exactly
	// one Report or Cancel.

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	release, shed, aerr := s.admit(ctx)
	if shed {
		ws.breaker.Cancel()
		s.writeError(w, http.StatusTooManyRequests, KindShed,
			"admission queue full", time.Second)
		return
	}
	if aerr != nil { // deadline expired while queued
		ws.breaker.Cancel()
		s.writeError(w, http.StatusGatewayTimeout, KindDeadline,
			"deadline expired waiting for an execution slot: "+aerr.Error(), 0)
		return
	}
	defer release()

	if ferr := in.Check(faultinject.SiteServeRun); ferr != nil {
		ws.breaker.Report(false)
		s.writeError(w, http.StatusInternalServerError, KindEngineFault,
			"engine unavailable: "+ferr.Error(), 0)
		return
	}

	if ws.onDemand {
		// The artifact comes from the signature-keyed cache, compiling
		// (coalesced) on a miss — inside the admission slot, so compile
		// work is bounded by the same concurrency budget as discovery.
		c, err = s.artifactFor(ctx, ws, in)
		if err != nil {
			if ctx.Err() != nil {
				ws.breaker.Cancel()
				s.writeError(w, http.StatusGatewayTimeout, KindDeadline,
					"deadline expired compiling artifact: "+err.Error(), 0)
				return
			}
			ws.breaker.Report(false)
			kind := KindBuildFailed
			if faultinject.IsTransient(err) || errors.As(err, new(*faultinject.Fault)) {
				kind = KindEngineFault
			}
			s.writeError(w, http.StatusInternalServerError, kind,
				fmt.Sprintf("compiling %s: %v", ws.name, err), 0)
			return
		}
		if req.QA < 0 || int(req.QA) >= c.Source.Geometry().NumPoints() {
			ws.breaker.Cancel()
			s.writeError(w, http.StatusBadRequest, KindBadRequest,
				fmt.Sprintf("qa %d outside grid [0, %d)", req.QA, c.Source.Geometry().NumPoints()), 0)
			return
		}
	}

	releaseWorkers := s.metrics.trackWorkers(workers)
	out, derr := s.discover(ctx, c, name, req.QA, in, workers)
	releaseWorkers()
	// Completed spill observations are valid selectivity knowledge even
	// when the run itself aborted: fold them into a lazy surface.
	s.feedRefinements(ws, out)
	resp := DiscoverResponse{Workload: req.Workload, Strategy: name, QA: req.QA}
	if s.ring != nil {
		resp.ServedBy = s.cfg.SelfURL
	}
	if failover {
		resp.Degraded = "failover"
	}
	switch name {
	case core.PlanBouquet, core.SpillBound, core.AlignedBound:
		// Paper strategies keep the legacy algorithm echo.
		resp.Algorithm = name
	}
	if out != nil {
		resp.Completed = out.Completed
		resp.TotalCost = out.TotalCost
		resp.SubOpt = out.SubOpt(c.Source.CostAt(req.QA))
		resp.Steps = len(out.Steps)
		resp.Retries = out.Retries
		resp.WastedCost = out.WastedCost
		resp.AlignPenalty = out.AlignPenalty
		resp.Degradations = out.Degradations
	}
	if aerr := discovery.AbortCause(derr); aerr != nil {
		// A client deadline says nothing about engine health: neither
		// trip nor reset the breaker.
		ws.breaker.Cancel()
		resp.Aborted = aerr.Err.Error()
		s.writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	}
	if derr != nil {
		ws.breaker.Report(false)
		s.writeError(w, http.StatusInternalServerError, KindEngineFault, derr.Error(), 0)
		return
	}
	ws.breaker.Report(true)
	jb, encOK := s.encodeBody(resp)
	if !encOK {
		s.writeBytes(w, http.StatusInternalServerError, []byte(encodeFailBody))
		return
	}
	// Cache the exact bytes being served. Skipped for failover serves
	// (stamped responses) and whenever the workload's epoch moved past
	// the key's — including by this very discovery's own refinements:
	// the outcome describes the pre-refinement surface, and a later
	// identical request must re-execute on the new one. An entry keyed
	// at a superseded epoch would be unreachable anyway; the recheck
	// just keeps it out of the budget.
	if cacheable && !failover && out != nil && out.Completed && ws.epoch() == key.Epoch {
		respBody := make([]byte, jb.buf.Len())
		copy(respBody, jb.buf.Bytes())
		_, admitted := s.outcomes.Put(key, &core.CachedOutcome{Body: respBody})
		// Learn the request identity too — only for admitted entries
		// (an identity nobody repeats would squat in the front table)
		// and only unarmed: armed requests must roll their chaos sites
		// on every arrival.
		if admitted && learnBody != nil && in == nil {
			s.front.put(&frontEntry{body: learnBody, ws: ws, strategy: name, key: key})
		}
	}
	s.writeBytes(w, http.StatusOK, jb.buf.Bytes())
	releaseJSONBuf(jb)
}

// discover runs one deadline-bounded discovery of the named strategy,
// with the simulated engine behind the configured latency and, when
// chaos is armed, the fault-injecting engine plus the resilient retry
// driver (capped exponential backoff with deterministic jitter).
func (s *Server) discover(ctx context.Context, c *core.Compiled, name string, qa int32, in *faultinject.Injector, workers int) (*core.Outcome, error) {
	r := c.AcquireRun().WithFaults(in).WithContext(ctx).WithExecWorkers(workers)
	defer core.ReleaseRun(r)
	if s.cfg.ExecLatency <= 0 {
		return r.DiscoverStrategy(name, qa)
	}
	sim := discovery.NewSimEngine(c.Source, qa)
	if in != nil {
		eng := discovery.NewResilient(
			discovery.NewLatentFallible(discovery.NewFaultySim(sim, in), s.cfg.ExecLatency).WithContext(ctx),
			discovery.DefaultRetryPolicy).WithJitter(in.Jitter).WithContext(ctx)
		return r.DiscoverStrategyWith(name, eng)
	}
	return r.DiscoverStrategyWith(name, discovery.NewLatent(sim, s.cfg.ExecLatency).WithContext(ctx))
}

func (s *Server) handleMSO(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer s.metrics.track()()
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, KindDraining, "server draining", time.Second)
		return
	}
	var req MSORequest
	if err := decodeRequest(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, KindBadRequest, "invalid JSON body: "+err.Error(), 0)
		return
	}
	name, err := resolvePolicy(req.Algorithm, "")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, KindBadRequest, err.Error(), 0)
		return
	}
	if req.Stride < 0 {
		s.writeError(w, http.StatusBadRequest, KindBadRequest,
			fmt.Sprintf("stride %d must be non-negative", req.Stride), 0)
		return
	}
	if req.Workers < 0 {
		s.writeError(w, http.StatusBadRequest, KindBadRequest,
			fmt.Sprintf("workers %d must be non-negative", req.Workers), 0)
		return
	}
	ws, c, ok := s.lookup(w, req.Workload)
	if !ok {
		return
	}
	s.metrics.countRequest(name)
	if allowed, wait := ws.breaker.Allow(); !allowed {
		s.writeError(w, http.StatusServiceUnavailable, KindBreakerOpen,
			fmt.Sprintf("workload %s circuit open", req.Workload), wait)
		return
	}

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	release, shed, aerr := s.admit(ctx)
	if shed {
		ws.breaker.Cancel()
		s.writeError(w, http.StatusTooManyRequests, KindShed, "admission queue full", time.Second)
		return
	}
	if aerr != nil {
		ws.breaker.Cancel()
		s.writeError(w, http.StatusGatewayTimeout, KindDeadline,
			"deadline expired waiting for an execution slot: "+aerr.Error(), 0)
		return
	}
	defer release()

	res, merr := mso.Sweep(c.Source, func(qa int32) (*core.Outcome, error) {
		return c.NewRun().WithContext(ctx).DiscoverStrategy(name, qa)
	}, mso.Options{Stride: req.Stride, Workers: req.Workers})
	if aerr := discovery.AbortCause(merr); aerr != nil {
		ws.breaker.Cancel()
		s.writeError(w, http.StatusGatewayTimeout, KindDeadline,
			"deadline expired mid-sweep: "+aerr.Err.Error(), 0)
		return
	}
	if merr != nil {
		ws.breaker.Report(false)
		s.writeError(w, http.StatusInternalServerError, KindEngineFault, merr.Error(), 0)
		return
	}
	ws.breaker.Report(true)
	g, _ := c.StrategyGuarantee(name)
	s.writeJSON(w, http.StatusOK, MSOResponse{
		Workload: req.Workload, Algorithm: name,
		MSO: res.MSO, ASO: res.ASO, ArgMax: res.ArgMax,
		Points: len(res.Points), Guarantee: g,
	})
}
