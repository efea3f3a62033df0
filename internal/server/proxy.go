package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/faultinject"
	"repro/internal/optimizer"
	"repro/internal/stats"
)

// This file is the shard-out arm of the server: with -peers configured,
// query signatures are consistent-hashed across the static replica set
// and /discover requests are proxied to their owner. A request landing
// on a non-owner forwards it (one hop — the forwarded header stops
// loops); when the owner is down the proxy hedges to the next replica
// in ring order, and when every remote owner is unreachable it serves
// locally with a degradation stamp rather than failing. Restarted
// replicas warm their pinned artifacts from peers' /snapshot streams
// before falling back to a cold build.

const (
	// forwardedHeader marks a proxied request; its presence means
	// "serve locally, do not forward again" (loop prevention).
	forwardedHeader = "X-Rqp-Forwarded"
	// failoverHeader counts the owners skipped before this request
	// reached its serving replica; non-zero means the response must
	// carry a degradation stamp.
	failoverHeader = "X-Rqp-Failover"
)

// peerSet tracks the liveness of the replica set. Health is probed
// lazily — a peer's last verdict is trusted for HealthInterval, then
// re-probed on next use — and every transport failure during a forward
// marks the peer down immediately, so one dead replica costs one
// failed attempt per interval, not one per request.
type peerSet struct {
	self     string
	interval time.Duration
	now      func() time.Time
	client   *http.Client

	mu    sync.Mutex
	state map[string]*peerHealth
}

type peerHealth struct {
	up      bool
	checked time.Time // zero: never probed
}

func newPeerSet(self string, interval time.Duration, now func() time.Time, probeTimeout time.Duration) *peerSet {
	return &peerSet{
		self:     self,
		interval: interval,
		now:      now,
		client:   &http.Client{Timeout: probeTimeout},
		state:    make(map[string]*peerHealth),
	}
}

// healthy reports whether the peer should be tried, probing /healthz
// when the cached verdict is stale.
func (p *peerSet) healthy(peer string) bool {
	if peer == p.self {
		return true
	}
	p.mu.Lock()
	h, ok := p.state[peer]
	if ok && p.now().Sub(h.checked) < p.interval {
		up := h.up
		p.mu.Unlock()
		return up
	}
	if !ok {
		h = &peerHealth{}
		p.state[peer] = h
	}
	// Optimistically stamp before probing so concurrent callers don't
	// pile probes onto one slow peer; the probe result overwrites.
	h.checked = p.now()
	h.up = true
	p.mu.Unlock()

	resp, err := p.client.Get(peer + "/healthz")
	up := err == nil && resp.StatusCode == http.StatusOK
	if err == nil {
		resp.Body.Close()
	}
	p.mu.Lock()
	h.up = up
	h.checked = p.now()
	p.mu.Unlock()
	return up
}

// markDown records a transport failure: the peer is skipped until the
// health interval elapses and a fresh probe clears it.
func (p *peerSet) markDown(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.state[peer]
	if !ok {
		h = &peerHealth{}
		p.state[peer] = h
	}
	h.up = false
	h.checked = p.now()
}

// snapshotUp returns each peer's current cached liveness verdict (no
// probing) for the /metrics gauge.
func (p *peerSet) snapshotUp(peers []string) map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]bool, len(peers))
	for _, peer := range peers {
		if peer == p.self {
			out[peer] = true
			continue
		}
		h, ok := p.state[peer]
		out[peer] = !ok || h.up // never probed = assumed up
	}
	return out
}

// routeDiscover decides where a /discover request runs. It returns
// (true, _) when it already wrote a response (the request was proxied
// to a peer); (false, hops) when the caller must serve locally, with
// hops counting the preferred owners that were skipped on the way —
// hops > 0 means this is a failover serve and the response gets a
// degradation stamp. Forwarded requests (header present) never
// re-forward: one hop maximum, so a routing disagreement cannot loop.
// cacheBody, when non-nil, receives the relayed bytes of a clean
// (zero-hop) 200 from the owner so the caller can install them in the
// outcome cache — forwarded one-hop responses are as deterministic as
// local ones.
func (s *Server) routeDiscover(w http.ResponseWriter, r *http.Request, req DiscoverRequest, key uint64, in *faultinject.Injector, cacheBody func([]byte)) (handled bool, hops int) {
	if s.ring == nil || r.Header.Get(forwardedHeader) != "" {
		return false, 0
	}
	owners := s.ring.Owners(key)
	for _, owner := range owners {
		if owner == s.cfg.SelfURL {
			return false, hops
		}
		if in.Trip(faultinject.SitePeerDown) {
			// Chaos: this attempt sees the peer as unreachable.
			s.peers.markDown(owner)
			s.metrics.failovers.Add(1)
			hops++
			continue
		}
		if !s.peers.healthy(owner) {
			s.metrics.failovers.Add(1)
			hops++
			continue
		}
		if s.forwardTo(w, r, owner, req, hops, cacheBody) {
			s.metrics.forwards.Add(1)
			return true, hops
		}
		s.peers.markDown(owner)
		s.metrics.failovers.Add(1)
		hops++
	}
	// Every remote owner was down and self was not on the ring path:
	// serve locally as the failover of last resort.
	return false, hops
}

// maxForwardBytes bounds one buffered proxy response (a misbehaving
// peer must not balloon our memory; real discover responses are KBs).
const maxForwardBytes = 8 << 20

// forwardBufPool recycles the proxy's response read buffers.
var forwardBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// forwardTo proxies the request to the owner and relays its response
// verbatim — the owner's answer, success or typed rejection, is the
// answer. The body is fully buffered before anything is written, so a
// transport failure mid-read still hedges cleanly to the next replica
// (previously a mid-copy failure truncated a committed response). It
// reports false on transport failure (dial error, timeout, short
// read) so the caller hedges. A zero-hop 200 is handed to cacheBody
// before relay when the caller wants to cache it.
func (s *Server) forwardTo(w http.ResponseWriter, r *http.Request, owner string, req DiscoverRequest, hops int, cacheBody func([]byte)) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ForwardTimeout)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/discover", bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, "1")
	if hops > 0 {
		preq.Header.Set(failoverHeader, strconv.Itoa(hops))
	}
	resp, err := s.peers.client.Do(preq)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	buf := forwardBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			forwardBufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxForwardBytes)); err != nil {
		return false
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if cacheBody != nil && hops == 0 && resp.StatusCode == http.StatusOK {
		relayed := make([]byte, buf.Len())
		copy(relayed, buf.Bytes())
		cacheBody(relayed)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.countEncodeError("relay", err)
	}
	return true
}

// handleSnapshot streams a workload's ESS snapshot (the crash-safe
// CRC-framed format) so a restarted peer can warm its artifact over
// the network instead of recompiling. Pinned workloads serve their
// eager space or lazy surface; on-demand tenants serve from the
// artifact cache when resident.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("workload")
	ws, ok := s.getWorkload(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, KindNotFound, fmt.Sprintf("unknown workload %q", name), 0)
		return
	}
	ws.mu.RLock()
	lazy := ws.lazy
	compiled := ws.compiled
	ws.mu.RUnlock()
	if compiled == nil && ws.onDemand {
		if art, ok := s.cache.Peek(ws.sigKey); ok {
			compiled = art
		}
	}
	var eager *ess.Space
	if compiled != nil {
		eager, _ = compiled.Source.(*ess.Space)
	}
	switch {
	case lazy != nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := lazy.Save(w); err != nil {
			s.cfg.Logf("server: streaming %s lazy snapshot: %v", name, err)
		}
	case eager != nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := eager.Save(w); err != nil {
			s.cfg.Logf("server: streaming %s snapshot: %v", name, err)
		}
	default:
		s.writeError(w, http.StatusServiceUnavailable, KindBuilding,
			fmt.Sprintf("workload %s has no resident snapshot", name), time.Second)
	}
}

// fetchPeerSnapshot tries to warm a pinned workload's space from the
// replica set: each remote peer's /snapshot stream is fully buffered,
// frame-verified (cheap CRC check), then strictly loaded — a corrupt
// or truncated transfer moves on to the next peer, never into the
// serving path. Returns nil when no peer could supply a usable
// snapshot (the caller builds cold).
func (s *Server) fetchPeerSnapshot(ws *workloadState) *ess.Space {
	q, err := ws.spec.Load(s.cfg.Scale)
	if err != nil {
		return nil
	}
	env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
	model := cost.NewModel(cost.DefaultParams())
	wantRes := s.cfg.Res
	if wantRes <= 0 {
		wantRes = ws.spec.Res
	}
	for _, peer := range s.ring.peers {
		if peer == s.cfg.SelfURL {
			continue
		}
		resp, err := s.peers.client.Get(peer + "/snapshot?workload=" + ws.name)
		if err != nil {
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxFanoutBytes))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if err := ess.VerifyFrame(bytes.NewReader(data)); err != nil {
			s.cfg.Logf("server: %s snapshot from %s rejected: %v", ws.name, peer, err)
			continue
		}
		sp, err := ess.LoadWith(bytes.NewReader(data), q, env, model, ess.LoadOptions{Strict: true})
		if err != nil {
			s.cfg.Logf("server: %s snapshot from %s failed strict load: %v", ws.name, peer, err)
			continue
		}
		if sp.Grid.Res != wantRes {
			continue // peer built at another resolution; not ours to serve
		}
		s.cfg.Logf("server: %s warm fan-out from peer %s", ws.name, peer)
		return sp
	}
	return nil
}

// maxFanoutBytes bounds one peer snapshot transfer (a lying peer must
// not balloon our memory).
const maxFanoutBytes = 256 << 20
