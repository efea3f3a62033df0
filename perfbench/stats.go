package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before that percentile is reported: a p99 over fewer than 1000
// samples is one or two outliers, not a tail.
const minTail = 10

// quantile is one reported percentile: the value, the percentile it
// actually reads (lower than asked when too few samples lie beyond the
// asked one) and the sample count it was read from.
type quantile struct {
	Value float64
	Q     float64
	N     int
}

// tailQuantile returns the q-th percentile (0 < q < 1, nearest rank) of
// samples when at least minTail samples lie beyond it; otherwise the
// highest percentile that has minTail samples beyond it. With fewer
// than minTail+1 samples it returns the median. samples is sorted in
// place.
func tailQuantile(samples []float64, q float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{Value: math.NaN(), Q: q}
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minTail {
		rank = n - 1 - minTail
	}
	if rank < (n-1)/2 {
		rank = (n - 1) / 2
	}
	return quantile{Value: samples[rank], Q: float64(rank+1) / float64(n), N: n}
}

// median returns the median of samples (sorted in place); NaN when empty.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// mean returns the arithmetic mean of samples; 0 when empty.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio is a share reported together with its base, so a 0.97 hit
// ratio over 30 lookups is not mistaken for one over 30000.
type ratio struct {
	Num, Base float64
}

// Value is Num/Base, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Base <= 0 {
		return 0
	}
	return r.Num / r.Base
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i/rate whether or not earlier requests have finished, so a
// stall delays every request behind it and shows in their latency.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, rate float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// due returns the time request i is due to be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// timing is one open-loop request's timing, measured from its due time:
// Latency runs to completion, Late is how long after its due time the
// request was actually sent (generator lag plus waiting for a free
// connection).
type timing struct {
	Latency, Late time.Duration
}

// openTiming derives a request's timing from its due, send and done
// instants.
func openTiming(due, sent, done time.Time) timing {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return timing{Latency: done.Sub(due), Late: late}
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// windowedRate is the median, over a phase's whole windows of length
// w, of successful operations per second, given each operation's
// completion time from the phase's start: a burst of interference from
// outside the process (the reference box is a shared VM) moves one
// window, not the median. With fewer than three windows it is the
// whole phase's rate.
func windowedRate(done []time.Duration, ok []bool, elapsed, w time.Duration) float64 {
	n := int(elapsed / w)
	if n < 3 {
		succ := 0
		for _, o := range ok {
			if o {
				succ++
			}
		}
		return float64(succ) / elapsed.Seconds()
	}
	counts := make([]float64, n)
	for i, d := range done {
		if j := int(d / w); j < n && ok[i] {
			counts[j]++
		}
	}
	return median(counts) / w.Seconds()
}
