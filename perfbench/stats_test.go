package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so sorting is exercised
	}
	return s
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		value float64 // samples are 1..n
		q     float64
	}{
		// 1100 samples: p99 is rank 1089, with 11 beyond it.
		{1100, 1089, 0.99},
		// 1000 samples: p99 (rank 990) has exactly ten beyond it.
		{1000, 990, 0.99},
		// 500 samples: p99 would have 5 beyond; fall back to rank 490.
		{500, 490, 0.98},
		// 15 samples: the highest percentile with ten beyond is below
		// the median, so the median is reported.
		{15, 8, 8.0 / 15},
	} {
		got := tailQuantile(seq(tc.n), 0.99)
		if got.Value != tc.value || math.Abs(got.Q-tc.q) > 1e-12 || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at q %v", tc.n, got, tc.value, tc.q)
		}
		if tc.n >= 2*minTail && tc.n-int(got.Value) < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, tc.n-int(got.Value))
		}
	}
	if got := tailQuantile(nil, 0.99); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("empty: got %+v, want NaN over 0 samples", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{Num: 3, Base: 4}
	if r.Value() != 0.75 || r.Base != 4 {
		t.Errorf("ratio %+v: value %v", r, r.Value())
	}
	if (ratio{Num: 0, Base: 0}).Value() != 0 {
		t.Error("a ratio over an empty base must read 0")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 100) // one request every 10ms
	if got := s.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Errorf("due(3) = %v, want start+30ms", got.Sub(start))
	}
	// Sent 4ms late and answered 2ms later: latency counts the wait.
	due := s.due(5)
	tm := openTiming(due, due.Add(4*time.Millisecond), due.Add(6*time.Millisecond))
	if tm.Latency != 6*time.Millisecond || tm.Late != 4*time.Millisecond {
		t.Errorf("late request: got %+v, want latency 6ms, late 4ms", tm)
	}
	// Sent early (clock granularity): lateness never goes negative.
	tm = openTiming(due, due.Add(-time.Millisecond), due.Add(time.Millisecond))
	if tm.Late != 0 || tm.Latency != time.Millisecond {
		t.Errorf("early request: got %+v", tm)
	}
}

func TestSleepUntilWakesOnTime(t *testing.T) {
	var worst time.Duration
	for i := 0; i < 20; i++ {
		due := time.Now().Add(300 * time.Microsecond)
		sleepUntil(due)
		late := time.Since(due)
		if late < 0 {
			t.Fatalf("woke %v before the due time", -late)
		}
		worst = max(worst, late)
	}
	// The runtime's own timers would be up to a millisecond late here.
	if worst > 5*time.Millisecond {
		t.Errorf("worst lateness %v", worst)
	}
}
