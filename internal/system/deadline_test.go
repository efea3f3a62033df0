package system

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/core/discovery"
)

// cancelAfterEngine cancels a context once n executions have been
// issued against the inner engine, modelling a client that gives up
// mid-contour. The cancellation lands after the n-th execution result
// was delivered, so the algorithms' pre-execution abort polls see it at
// the next execution boundary.
type cancelAfterEngine struct {
	inner  discovery.Engine
	left   int
	cancel context.CancelFunc
}

func (e *cancelAfterEngine) tick() {
	e.left--
	if e.left == 0 {
		e.cancel()
	}
}

func (e *cancelAfterEngine) ExecFull(planID int32, budget float64) (float64, bool) {
	c, done := e.inner.ExecFull(planID, budget)
	e.tick()
	return c, done
}

func (e *cancelAfterEngine) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	c, done, learned := e.inner.ExecSpill(planID, dim, budget)
	e.tick()
	return c, done, learned
}

var _ discovery.Engine = (*cancelAfterEngine)(nil)

// A context canceled mid-contour must stop every algorithm at the next
// execution boundary with the typed abort, a partial trace that is a
// bit-for-bit prefix of the clean run, and exactly one "exec-abandoned"
// degradation — never a "lost-observation": the abandoned execution was
// refused before it ran, not observed and dropped.
func TestDeadlineMidContourRecordsExecAbandoned(t *testing.T) {
	s := buildRandomSpace(t, 7, 4, 2, 6)
	c, err := core.Compile(s, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range chaosAlgs {
		// Find a true location whose clean trace is long enough to cut.
		var qa int32
		var clean *discovery.Outcome
		for qa = 0; int(qa) < s.Grid.NumPoints(); qa += 3 {
			out, err := c.NewRun().DiscoverStrategy(alg, qa)
			if err != nil {
				t.Fatalf("%s qa=%d clean: %v", alg, qa, err)
			}
			if len(out.Steps) >= 4 {
				clean = out
				break
			}
		}
		if clean == nil {
			t.Fatalf("%s: no grid point with >= 4 executions", alg)
		}
		for _, cut := range []int{1, len(clean.Steps) / 2, len(clean.Steps) - 1} {
			ctx, cancel := context.WithCancel(context.Background())
			eng := discovery.NewGuard(ctx, &cancelAfterEngine{
				inner:  discovery.NewSimEngine(s, qa),
				left:   cut,
				cancel: cancel,
			})
			got, gerr := c.NewRun().WithContext(ctx).DiscoverStrategyWith(alg, eng)
			cancel()
			if gerr == nil {
				t.Fatalf("%s qa=%d cut=%d: expected abort, got completed run", alg, qa, cut)
			}
			if !errors.Is(gerr, context.Canceled) {
				t.Fatalf("%s qa=%d cut=%d: abort does not unwrap to context.Canceled: %v", alg, qa, cut, gerr)
			}
			if discovery.AbortCause(gerr) == nil {
				t.Fatalf("%s qa=%d cut=%d: error is not a typed abort: %v", alg, qa, cut, gerr)
			}
			if got == nil {
				t.Fatalf("%s qa=%d cut=%d: aborted run returned no partial outcome", alg, qa, cut)
			}
			if got.Completed {
				t.Fatalf("%s qa=%d cut=%d: aborted run claims completion", alg, qa, cut)
			}
			if !reflect.DeepEqual(got.Steps, clean.Steps[:cut]) {
				t.Fatalf("%s qa=%d cut=%d: partial trace is not a clean-run prefix\ngot:  %+v\nwant: %+v",
					alg, qa, cut, got.Steps, clean.Steps[:cut])
			}
			abandoned, lost := 0, 0
			for _, d := range got.Degradations {
				switch d.Kind {
				case "exec-abandoned":
					abandoned++
				case "lost-observation":
					lost++
				}
			}
			if abandoned != 1 {
				t.Fatalf("%s qa=%d cut=%d: %d exec-abandoned degradations, want exactly 1 (%+v)",
					alg, qa, cut, abandoned, got.Degradations)
			}
			if lost != 0 {
				t.Fatalf("%s qa=%d cut=%d: abort recorded as lost-observation (%+v)",
					alg, qa, cut, got.Degradations)
			}
			if got.Retries != 0 || got.WastedCost != 0 {
				t.Fatalf("%s qa=%d cut=%d: fault-free abort billed retries=%d wasted=%v",
					alg, qa, cut, got.Retries, got.WastedCost)
			}
		}
	}
}
