package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the client's concurrency: the reference box has two cores,
// and load wider than the machine measures the scheduler.
const conns = 2

// client posts /discover bodies to a fixed set of replicas over
// loopback keep-alive connections.
type client struct {
	hc   *http.Client
	urls []string
}

func newClient(urls []string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, urls: urls}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one /discover answer as the client saw it.
type reply struct {
	Status int
	Body   []byte
	Err    error // transport error; Status is 0
}

// ok reports a 200 answer.
func (r reply) ok() bool { return r.Err == nil && r.Status == http.StatusOK }

func (c *client) post(ctx context.Context, replica int, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.urls[replica]+"/discover", bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{Err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{Err: err}
	}
	return reply{Status: resp.StatusCode, Body: b}
}

// scrape reads a replica's /metrics and returns every sample keyed by
// its series name (with labels, as printed).
func (c *client) scrape(ctx context.Context, replica int) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[replica]+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// scrapeAll sums the samples of every replica.
func (c *client) scrapeAll(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for i := range c.urls {
		m, err := c.scrape(ctx, i)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// sender sends request i of a workload's stream and returns the reply.
type sender func(ctx context.Context, i int) reply

// openResult is an open-loop phase's outcome.
type openResult struct {
	Timings []timing
	OK      []bool
}

// openLoop sends requests 0..n-1 at a fixed rate, on at most conns
// concurrent callers. A request due while every caller is busy waits
// for one, and that wait counts in its latency.
func openLoop(ctx context.Context, send sender, rate float64, n int) openResult {
	sched := newSchedule(time.Now().Add(5*time.Millisecond), rate)
	res := openResult{Timings: make([]timing, n), OK: make([]bool, n)}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Now()
				rep := send(ctx, i)
				res.Timings[i] = openTiming(sched.due(i), sent, time.Now())
				res.OK[i] = rep.ok()
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		sleepUntil(sched.due(i))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedResult is a closed-loop phase's outcome, in request order.
type closedResult struct {
	OK      []bool
	Done    []time.Duration // completion, from the phase's start
	Elapsed time.Duration
}

// rate is successful requests per second over the whole phase.
func (c closedResult) rate() float64 {
	n := 0
	for _, ok := range c.OK {
		if ok {
			n++
		}
	}
	return float64(n) / c.Elapsed.Seconds()
}

// closedLoop keeps callers busy, each sending its next request as soon
// as the previous one returns, starting at request first, until d has
// passed or limit requests have been sent.
func closedLoop(ctx context.Context, send sender, callers, first, limit int, d time.Duration) closedResult {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	ok := make([]bool, limit)
	done := make([]time.Duration, limit)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				ok[i] = send(ctx, first+i).ok()
				done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := int(next.Load())
	if n > limit {
		n = limit
	}
	// Every claimed index below limit was sent and answered.
	return closedResult{OK: ok[:n], Done: done[:n], Elapsed: elapsed}
}

// sleepUntil blocks the calling goroutine's thread until t. The
// runtime's timers wake sleepers on a millisecond-granular poll, which
// would make the generator itself late by up to a millisecond per
// request; nanosleep wakes on time.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}
