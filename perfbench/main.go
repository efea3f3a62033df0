// Command perfbench is the repository's end-to-end benchmark. It sets
// up one workload in-process, drives it from this one process for a
// fixed time, checks every answer, and prints the metrics BENCHMARK.json
// names as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: serve-hot (repeat-heavy /discover traffic on one eager
// replica), serve-cold (fresh keys on two lazy replicas on a ring, with
// on-demand tenants under cache pressure) and engine (discoveries over
// real executions on generated data, no server). --trace 1 runs the
// same inputs again through timing decorators and in-process replays
// and prints the per-layer metrics instead. A correctness violation
// prints the result with "correct": false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// report collects a run's metrics, failures and gate violations.
type report struct {
	metrics    map[string]metric
	failures   map[string]int64 // by kind
	attempted  int64
	violations []string
	notes      []string
	layers     []layerRow
}

// layerRow is one line of the traced run's attribution table: the mean
// time per operation a layer accounts for.
type layerRow struct {
	Layer string
	US    float64
	How   string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, failures: map[string]int64{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	} else if len(r.violations) == 20 {
		r.violations = append(r.violations, "... further violations suppressed")
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation of the given kind; failures never
// abort a run.
func (r *report) fail(kind string) { r.failures[kind]++ }

func (r *report) failed() int64 {
	n := int64(0)
	for _, v := range r.failures {
		n += v
	}
	return n
}

// attribute fills the attribution table and its metrics: each layer's
// mean time per operation, and the remainder of total no layer
// accounts for. how says what the total measures.
func (r *report) attribute(total float64, how string, rows []layerRow) {
	sum := 0.0
	for _, row := range rows {
		sum += row.US
		r.set("attr."+row.Layer+"_us", "us", row.US)
	}
	rows = append(rows, layerRow{Layer: "unattributed", US: total - sum, How: "total minus the rows above"})
	r.set("attr.unattributed_us", "us", total-sum)
	r.set("attr.total_us", "us", total)
	r.layers = append([]layerRow{{Layer: "total", US: total, How: how}}, rows...)
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(ctx context.Context, o options, r *report) error

var workloads = map[string]workloadFunc{
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
	"engine":     runEngine,
}

// runDeadline bounds a whole run, set-up included, below the three
// minutes a run may take.
const runDeadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-hot, serve-cold or engine")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run instead")
	flag.Parse()
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	r := newReport()
	if err := fn(ctx, o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := r.result(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	r.print(o, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// liveHeapMiB is the live heap after a full collection. Workloads read
// it once before the system under test is set up, with their own
// inputs already generated, and once at the end of the measured
// phases, while the system is still up; heap_mb is the difference.
func liveHeapMiB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// result selects the metrics this mode reports. Every declared metric
// must have been measured; per-layer metrics a workload does not
// exercise read 0.
func (r *report) result(o options) (result, error) {
	res := result{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed(),
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	r.set("failed_frac", "ratio", float64(res.Failed)/float64(res.Attempted))
	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok && !o.trace:
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		case !ok:
			m = metric{Value: 0, Unit: d.Unit}
		case m.Unit != d.Unit:
			return res, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return res, fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		res.Metrics[d.Name] = m
	}
	return res, nil
}

// print writes the human-readable summary, then the result line.
func (r *report) print(o options, res result) {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	if len(r.failures) > 0 {
		kinds := make([]string, 0, len(r.failures))
		for k := range r.failures {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Printf("  failed %-40s %d\n", k, r.failures[k])
		}
	}
	if len(r.layers) > 0 {
		fmt.Println("  layer attribution (mean us per operation):")
		for _, l := range r.layers {
			fmt.Printf("    %-14s %12.2f  %s\n", l.Layer, l.US, l.How)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, v := range r.violations {
		fmt.Println("  VIOLATION: " + v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
