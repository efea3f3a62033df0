package ess_test

import (
	"sync"
	"testing"

	"repro/internal/ess"
	"repro/internal/workload"
)

func buildPair(t *testing.T, spec workload.Spec, cfg ess.Config) (*ess.Space, *ess.LazySpace) {
	t.Helper()
	eager, err := spec.SpaceWith(1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := spec.LazySpaceWith(1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eager, lazy
}

// TestLazyExactMatchesEagerContours requires the lazy source in exact
// mode to reproduce the eager space's full contour set bit-for-bit:
// budgets, member points, per-point costs and plan signatures.
func TestLazyExactMatchesEagerContours(t *testing.T) {
	for _, spec := range lowDimSuite() {
		t.Run(spec.Name, func(t *testing.T) {
			eager, lazy := buildPair(t, spec, ess.Config{Exact: true})

			ec, lc := eager.ContourCosts(), lazy.ContourCosts()
			if len(ec) != len(lc) {
				t.Fatalf("contour counts %d != %d", len(ec), len(lc))
			}
			for i := range ec {
				if ec[i] != lc[i] {
					t.Fatalf("contour cost %d: %v != %v", i, ec[i], lc[i])
				}
			}
			for ci := 0; ci < eager.NumContours(); ci++ {
				a := eager.ContourAt(nil, ci)
				b := lazy.ContourAt(nil, ci)
				if a.Cost != b.Cost || len(a.Points) != len(b.Points) {
					t.Fatalf("contour %d: %d pts at %v vs %d pts at %v",
						ci, len(a.Points), a.Cost, len(b.Points), b.Cost)
				}
				for j, pt := range a.Points {
					if b.Points[j] != pt {
						t.Fatalf("contour %d point %d: %d != %d", ci, j, pt, b.Points[j])
					}
					if ec, lc := eager.CostAt(pt), lazy.CostAt(pt); ec != lc {
						t.Fatalf("point %d cost %v != %v", pt, ec, lc)
					}
					es := eager.Plan(eager.PlanAt(pt)).Sig
					ls := lazy.Plan(lazy.PlanAt(pt)).Sig
					if es != ls {
						t.Fatalf("point %d plan %s != %s", pt, es, ls)
					}
				}
			}
			prof := lazy.Profile()
			if prof.Mode != "lazy-exact" {
				t.Fatalf("mode %q", prof.Mode)
			}
			if prof.Settled <= 0 || prof.Settled > prof.Points {
				t.Fatalf("settled %d of %d", prof.Settled, prof.Points)
			}
		})
	}
}

// TestLazySliceContoursMatchEager pins the partially-learned slice path:
// re-contouring with pinned dimensions must agree between providers.
func TestLazySliceContoursMatchEager(t *testing.T) {
	spec := lowDimSuite()[0]
	eager, lazy := buildPair(t, spec, ess.Config{Exact: true})
	g := eager.Grid

	learned := make([]int, g.D)
	for d := range learned {
		learned[d] = -1
	}
	learned[0] = g.Res / 2

	for ci := 0; ci < eager.NumContours(); ci++ {
		a := eager.ContourAt(learned, ci)
		b := lazy.ContourAt(learned, ci)
		if len(a.Points) != len(b.Points) {
			t.Fatalf("slice contour %d: %d != %d points", ci, len(a.Points), len(b.Points))
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("slice contour %d point %d: %d != %d", ci, j, a.Points[j], b.Points[j])
			}
		}
	}
}

// TestLazyRecostContoursAreValid checks the recost-mode lazy source's
// structural contract (exact equality is only promised in exact mode):
// every emitted contour point is within budget with all free successors
// above it, and CostAt agrees with the contour's own membership rule.
func TestLazyRecostContoursAreValid(t *testing.T) {
	spec := lowDimSuite()[0]
	_, lazy := buildPair(t, spec, ess.Config{Theta: 0.05, CoarseStep: 2})
	g := lazy.Geometry()

	costs := lazy.ContourCosts()
	for ci := range costs {
		b := costs[ci] * (1 + 1e-9)
		ct := lazy.ContourAt(nil, ci)
		for _, pt := range ct.Points {
			if c := lazy.CostAt(pt); c > b {
				t.Fatalf("contour %d point %d cost %v above budget %v", ci, pt, c, b)
			}
			for d := 0; d < g.D; d++ {
				if nxt := g.Step(int(pt), d); nxt >= 0 {
					if c := lazy.CostAt(int32(nxt)); c <= b {
						t.Fatalf("contour %d point %d: successor %d within budget", ci, pt, nxt)
					}
				}
			}
		}
	}
	if prof := lazy.Profile(); prof.Mode != "lazy-recost" {
		t.Fatalf("mode %q", prof.Mode)
	}
}

// TestLazyRefinementOverlay drives the COW refinement path: refining a
// recost-settled slice must bump the epoch, reroute CostAt through the
// overlay, and leave previously captured contours untouched while new
// enumerations see the refined surface.
func TestLazyRefinementOverlay(t *testing.T) {
	spec := lowDimSuite()[0]
	eager, lazy := buildPair(t, spec, ess.Config{Theta: 0.5, CoarseStep: 2})
	g := lazy.Geometry()

	// Touch the whole surface so there are recost-settled points.
	for ci := 0; ci < lazy.NumContours(); ci++ {
		lazy.ContourAt(nil, ci)
	}
	if lazy.Epoch() != 0 {
		t.Fatalf("fresh source epoch %d", lazy.Epoch())
	}

	// Observe every index of dimension 0: after refinement the full
	// surface is exact-grade, so it must agree with the eager exact
	// reference everywhere it previously drifted.
	for idx := 0; idx < g.Res; idx++ {
		lazy.Observe(0, idx)
	}
	changed := lazy.ApplyRefinements()
	prof := lazy.Profile()
	if prof.Refinements != 1 {
		t.Fatalf("refinement rounds %d", prof.Refinements)
	}
	if changed > 0 && lazy.Epoch() == 0 {
		t.Fatal("refinement changed values without bumping epoch")
	}
	if int(prof.RefinedPoints) != changed {
		t.Fatalf("refined points %d != changed %d", prof.RefinedPoints, changed)
	}

	exactRef, err := spec.SpaceWith(1.0, ess.Config{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = eager
	n := g.NumPoints()
	for pt := 0; pt < n; pt++ {
		if lc, ec := lazy.CostAt(int32(pt)), exactRef.CostAt(int32(pt)); lc != ec {
			t.Fatalf("post-refinement point %d cost %v != exact %v", pt, lc, ec)
		}
	}

	// Idempotent: re-observing the already refined slices changes nothing.
	for idx := 0; idx < g.Res; idx++ {
		lazy.Observe(0, idx)
	}
	if again := lazy.ApplyRefinements(); again != 0 {
		t.Fatalf("second refinement changed %d points", again)
	}

	// Out-of-range observations are ignored.
	lazy.Observe(-1, 0)
	lazy.Observe(0, g.Res)
	if n := lazy.ApplyRefinements(); n != 0 {
		t.Fatalf("invalid observations refined %d points", n)
	}
}

// TestLazyConcurrentSettle hammers one lazy source from many goroutines
// (run under -race): all contours and point accessors must agree with a
// sequentially settled twin.
func TestLazyConcurrentSettle(t *testing.T) {
	spec := lowDimSuite()[0]
	seq, par := buildPair(t, spec, ess.Config{Theta: 0.05, CoarseStep: 2})
	_ = seq

	ref, err := spec.LazySpaceWith(1.0, ess.Config{Theta: 0.05, CoarseStep: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := par.Geometry()
	n := g.NumPoints()
	// Sequential twin settles everything first.
	refCosts := make([]float64, n)
	for pt := 0; pt < n; pt++ {
		refCosts[pt] = ref.CostAt(int32(pt))
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				pt := (i*workers + w) % n
				if c := par.CostAt(int32(pt)); c != refCosts[pt] {
					errs <- "cost mismatch"
					return
				}
			}
			for ci := 0; ci < par.NumContours(); ci++ {
				par.ContourAt(nil, ci)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	// The memo counters are schedule independent: exactly one build
	// (and miss) per contour, every other lookup a hit, point settles
	// not mixed in.
	prof, nc := par.Profile(), int64(par.NumContours())
	if prof.ContoursBuilt != nc || prof.Misses != nc || prof.Hits != (workers-1)*nc {
		t.Fatalf("contour memo counters: built=%d misses=%d hits=%d, want %d, %d, %d",
			prof.ContoursBuilt, prof.Misses, prof.Hits, nc, nc, (workers-1)*nc)
	}
}
