package core

import (
	"math"

	"repro/internal/query"
)

// This file implements the serving tier's deterministic outcome cache.
// Discovery outcomes are bit-for-bit deterministic by construction:
// the same compiled artifact, strategy, grid point, worker count, and
// fault substream produce a deep-equal Outcome (pinned by the
// differential suites), so unlike an ordinary database result cache a
// semantic outcome cache here is *provably* correct — provided the key
// captures every input the execution depends on. OutcomeKey enumerates
// exactly those inputs; anything that can change the outcome must
// appear in it, and the lazy-ESS refinement epoch is the one input that
// mutates behind a stable signature.

// OutcomeKey identifies one deterministic discovery execution. Two
// requests with equal keys are guaranteed to produce deep-equal
// outcomes and byte-identical JSON responses.
type OutcomeKey struct {
	// SigHash is the workload's extended artifact signature
	// (query.Sign + Extend over EPP/res/scale) — it already pins the
	// SQL shape, grid geometry, and catalog scale.
	SigHash uint64
	// Workload is the tenant name the response echoes; two tenants can
	// share a signature (and artifact) yet serve distinct responses.
	Workload string
	// Strategy is the resolved strategy name ("spillbound", "parqo",
	// ...) — algorithm aliases resolve to it before keying.
	Strategy string
	// QA is the grid-point ordinal the discovery targets.
	QA int
	// ExecWorkers is the per-request intra-query worker count (0 =
	// server default). The merged meter is worker-count independent,
	// but exec parallelism degradations are not, so it keys.
	ExecWorkers int
	// FaultSeed and FaultRate pin the deterministic fault substream.
	// Both are zero when the request runs unarmed.
	FaultSeed uint64
	FaultRate float64
	// Lambda is the compiled artifact's cost-model λ.
	Lambda float64
	// Epoch is the workload's ESS refinement epoch at execution time.
	// Lazy-mode online refinement bumps it, invalidating every entry
	// computed against the older contour surface. Eager spaces are
	// frozen at epoch 0.
	Epoch uint64
}

// Hash folds the key into 64 bits by extending the artifact signature
// with the request coordinates — the same FNV-1a construction
// query.Signature.Extend uses, so replicas derive identical hashes. The
// cache itself is keyed by the full key; the hash only feeds the
// doorkeeper, which remembers 8 bytes per offered key.
func (k OutcomeKey) Hash() uint64 {
	return query.Signature{Hash: k.SigHash}.
		Extend(k.Workload, k.Strategy).
		ExtendUint64(
			uint64(int64(k.QA)),
			uint64(int64(k.ExecWorkers)),
			k.FaultSeed,
			math.Float64bits(k.FaultRate),
			math.Float64bits(k.Lambda),
			k.Epoch,
		).Hash
}

// NewOutcomeCache creates the byte-budgeted cache of discovery
// outcomes: values are the exact JSON response bytes served for a
// discovery, so a hit bypasses both the admission-slot execution and
// the re-encode. A body is immutable once cached and must never be
// mutated by readers (it is written to responses directly, zero-copy).
// A non-positive budget gets a 64 MiB default — outcome entries are far
// smaller than compiled artifacts.
//
// Admission goes through a doorkeeper: a two-generation set of key
// hashes that were offered recently. A new key is admitted only on its
// second offer within the window, so a stream of never-repeating
// requests retains nothing — an all-miss workload must not trade its
// own GC pressure for entries nobody will read. Each generation holds
// admitGen 8-byte hashes, not whole keys; when the current one fills
// it becomes the previous and a fresh one starts, bounding memory
// while keeping recent history.
func NewOutcomeCache(budget int64) *LRU[OutcomeKey, []byte] {
	var prev map[uint64]struct{}
	cur := make(map[uint64]struct{})
	return newLRU[OutcomeKey, []byte](budget, 64<<20, func(k OutcomeKey) bool {
		h := k.Hash()
		if _, ok := cur[h]; ok {
			return true
		}
		if _, ok := prev[h]; ok {
			return true
		}
		if len(cur) >= admitGen {
			prev, cur = cur, make(map[uint64]struct{})
		}
		cur[h] = struct{}{}
		return false
	})
}

// admitGen is the doorkeeper generation size: how many distinct missed
// keys are remembered before the window slides.
const admitGen = 1 << 14

// EstimateOutcomeBytes approximates the resident size of a cached
// outcome body for budget accounting: the body plus a fixed per-entry
// overhead (entry struct, list element, map slot). Like
// EstimateArtifactBytes, only consistency and monotonicity matter, not
// exactness.
func EstimateOutcomeBytes(body []byte) int64 {
	if body == nil {
		return 0
	}
	const fixedOverhd = 256
	return int64(len(body)) + fixedOverhd
}
