// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates seeded inputs, drives one of the three front
// ends through its public API — the batch pipeline (batch-nba,
// batch-syn), the sliding-window engine (stream-window) or the daemon
// over loopback HTTP (daemon-shared) — checks every output, and prints
// each metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload batch-nba --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run, which reports the per-layer metrics and writes its spans under
// .bench_build/traces. --selftest runs the injected-delay check of the
// per-layer split instead of a workload. See perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
)

// metricDef names one reported metric. The lists below are the single
// source of the names, units and directions BENCHMARK.json repeats.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. An "op" is one
// skyline query on the batch and daemon workloads and one window tick
// (one refreshed answer set) on stream-window.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"answer_f1", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics. Every workload reports every
// one; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"bayesnet.learn_ms", "ms", "lower"},
	{"preprocess.posterior_ms", "ms", "lower"},
	{"preprocess.missing_cells", "count", "lower"},
	{"preprocess.evidence_patterns", "count", "lower"},
	{"ctable.build_ms", "ms", "lower"},
	{"ctable.undecided_conds", "count", "lower"},
	{"ctable.exprs", "count", "lower"},
	{"select.ms", "ms", "lower"},
	{"select.tasks_posted", "count", "lower"},
	{"select.rounds", "count", "lower"},
	{"prob.ms", "ms", "lower"},
	{"prob.cache_hit_ratio", "ratio", "higher"},
	{"prob.cache_lookups", "count", "lower"},
	{"prob.cache_invalidated_entries", "count", "lower"},
	{"crowdphase.other_ms", "ms", "lower"},
	{"crowd.post_ms", "ms", "lower"},
	{"crowd.posts", "count", "lower"},
	{"stream.recomputed_per_tick", "count", "lower"},
	{"stream.invalidated_entries_per_tick", "count", "lower"},
	{"stream.cache_hit_ratio", "ratio", "higher"},
	{"stream.cache_lookups", "count", "lower"},
	{"stream.fill_ms", "ms", "lower"},
	{"stream.table_ms", "ms", "lower"},
	{"service.register_ms", "ms", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.poll_ms", "ms", "lower"},
	{"service.polls", "count", "lower"},
	{"service.task_open_to_answer_ms", "ms", "lower"},
	{"service.callback_p50_ms", "ms", "lower"},
	{"service.callback_tail_ms", "ms", "lower"},
	{"service.dedup_ratio", "ratio", "higher"},
	{"service.dedup_requested", "count", "lower"},
	{"service.tasks_opened", "count", "lower"},
	{"parallel.items_per_fanout", "count", "higher"},
	{"parallel.inline_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"share.bayesnet.learn", "ratio", "lower"},
	{"share.preprocess.posterior", "ratio", "lower"},
	{"share.ctable.build", "ratio", "lower"},
	{"share.select", "ratio", "lower"},
	{"share.prob", "ratio", "lower"},
	{"share.crowdphase.other", "ratio", "lower"},
	{"share.crowd.post", "ratio", "lower"},
	{"share.stream.table", "ratio", "lower"},
	{"share.stream.recompute", "ratio", "lower"},
	{"share.service.http", "ratio", "lower"},
	{"share.service.core", "ratio", "lower"},
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  time.Duration
	workers  int           // passed to the program as its worker count
	delay    time.Duration // the self-test's sleep in the crowd wrapper or task sink
	traceDir string
}

// phase is one measured stretch of a workload: the per-op latencies, the
// output checks made, and additive sums the workload turns into
// per-layer metrics.
type phase struct {
	ops       []float64 // per-op latency, ms
	units     float64   // throughput units completed (queries, objects)
	busy      time.Duration
	f1        []float64
	setup     []float64 // set-ups made while measuring, s
	attempted int
	failed    int
	sums      map[string]float64
}

func newPhase() *phase { return &phase{sums: map[string]float64{}} }

// check books one output check: attempted always, failed when err is
// non-nil (the first few failures are printed).
func (p *phase) check(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
}

// bench is one workload's lifecycle. prepare generates the inputs from
// the seed, sets the program up (recording every set-up's wall time)
// and runs the untimed pre-pass checks; measure runs the timed loop for
// about d, and rewind makes the next measure replay the ops of the
// first; layers turns a traced phase into per-layer metrics.
type bench interface {
	prepare(cfg config) (setupS []float64, pre *phase, err error)
	measure(d time.Duration, tr *tracer) (*phase, error)
	rewind()
	layers(p *phase, tr *tracer) map[string]float64
	close()
}

// workload describes one named workload.
type workload struct {
	name string
	why  string
	// tailPct is the tail percentile reported as op_tail_ms, fixed per
	// workload so that a 25 s run leaves at least ten samples beyond it.
	tailPct float64
	// shares are the share.* layers the workload splits op time into, and
	// predicted the ones expected, together, to take more of it than any
	// other single layer.
	shares    []string
	predicted []string
	new       func() bench
}

var workloads = []workload{
	{
		name:      "batch-nba",
		why:       "NBA-shaped n=10k, paper defaults (UBS, B=50, L=5): posterior inference dominates, so a preprocessing change shows and selection barely registers",
		tailPct:   60,
		predicted: []string{"share.preprocess.posterior"},
		shares:    batchShares,
		new:       func() bench { return &batchBench{spec: nbaSpec} },
	},
	{
		name:      "batch-syn",
		why:       "Adult-shaped n=3k, Synthetic defaults (HHS, B=1000, L=10): the crowd phase dominates, so selection, Pr(phi) and cache changes show",
		tailPct:   85,
		predicted: []string{"share.select"},
		shares:    batchShares,
		new:       func() bench { return &batchBench{spec: synSpec} },
	},
	{
		name:      "stream-window",
		why:       "80 fixed 200-object count windows, 5 arrivals each, 1 per tick, machine-only: insert/evict churn beside Pr(phi) reads, no BN and no selection",
		tailPct:   99,
		predicted: []string{"share.stream.recompute"},
		shares:    []string{"share.stream.table", "share.stream.recompute"},
		new:       func() bench { return &streamBench{} },
	},
	{
		name:      "daemon-shared",
		why:       "daemon over loopback HTTP, 24 shared n=2k datasets, a pair of identical queries in flight with cross-query dedup: small core work leaves HTTP, hub, scheduler and callbacks a large share",
		tailPct:   98,
		predicted: []string{"share.service.http"},
		shares:    []string{"share.service.http", "share.service.core"},
		new:       func() bench { return &daemonBench{} },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: batch-nba, batch-syn, stream-window or daemon-shared")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Float64("seconds", 25, "how long the timed loop runs")
		traced  = flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
		self    = flag.Bool("selftest", false, "run the injected-delay self-test of the per-layer split")
	)
	flag.Parse()
	// Every workload runs on one processor with one worker. On a shared
	// 2-vCPU host, runs of the same seed spread two to five times wider
	// with two (perfbench/README.md, One worker): another tenant's load
	// on either vCPU stalls a fan-out, while one thread loses only its own.
	runtime.GOMAXPROCS(1)
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		workers:  1,
		traceDir: filepath.Join(".bench_build", "traces"),
	}
	if *self {
		if err := selftest(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(w, cfg, *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run prepares the workload, measures it and assembles the result. The
// human-readable report goes to out; the caller prints the JSON line.
func run(w workload, cfg config, traced bool, out io.Writer) (*result, error) {
	b := w.new()
	defer b.close()
	setupS, pre, err := b.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	res := &result{Attempted: pre.attempted, Failed: pre.failed, Metrics: map[string]metricValue{}}
	add := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	var rows []string
	if !traced {
		p, err := b.measure(cfg.seconds, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: measure: %w", w.name, err)
		}
		add(p)
		if len(p.ops) == 0 {
			return nil, errors.New(w.name + ": no operation completed in the timed loop")
		}
		vals := map[string]float64{
			"op_p50_ms":   median(p.ops),
			"op_tail_ms":  percentile(p.ops, w.tailPct),
			"ops_per_s":   ratio(p.units, p.busy.Seconds()),
			"answer_f1":   mean(p.f1),
			"setup_s":     median(append(setupS, p.setup...)),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		rows = append(rows, fmt.Sprintf("ops: %d; op_tail_ms is p%g with %d samples beyond it; set-ups: %d",
			len(p.ops), w.tailPct, beyond(len(p.ops), w.tailPct), len(setupS)+len(p.setup)))
		for _, k := range sortedKeys(p.sums) {
			if strings.HasPrefix(k, "report.") {
				rows = append(rows, fmt.Sprintf("%s = %.4g", strings.TrimPrefix(k, "report."), p.sums[k]))
			}
		}
		report(out, w.name, cfg, endToEnd, res, rows)
	} else {
		half := cfg.seconds / 2
		pu, err := b.measure(half, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: measure: %w", w.name, err)
		}
		add(pu)
		b.rewind()
		tr := newTracer()
		pool := obs.NewRegistry()
		parallel.SetMetrics(pool)
		pt, err := b.measure(half, tr)
		parallel.SetMetrics(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: traced measure: %w", w.name, err)
		}
		add(pt)
		vals := b.layers(pt, tr)
		fanouts, inline := pool.Counter("parallel.fanouts").Value(), pool.Counter("parallel.inline").Value()
		vals["parallel.items_per_fanout"] = ratio(float64(pool.Counter("parallel.items").Value()), float64(fanouts+inline))
		vals["parallel.inline_ratio"] = ratio(float64(inline), float64(fanouts+inline))
		// Both halves ran the same ops from the start; compare the ops
		// both completed.
		n := min(len(pt.ops), len(pu.ops))
		vals["trace.overhead_ratio"] = ratio(mean(pt.ops[:n]), mean(pu.ops[:n]))
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		path, err := tr.write(cfg.traceDir, w.name, cfg.seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fmt.Sprintf("spans written to %s", path))
		self := tr.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rows = append(rows, fmt.Sprintf("self time %-22s %10.3f ms per op (%d spans)",
				n, ms(self[n])/float64(len(pt.ops)), tr.count(n)))
		}
		rows = append(rows, dominance(w, vals))
		report(out, w.name, cfg, perLayer, res, rows)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// dominance names the layer with the largest share of op time and says
// whether the workload's predicted layers took more than any other.
func dominance(w workload, vals map[string]float64) string {
	best, bestV := "", -1.0
	predicted, other := 0.0, 0.0
	for _, s := range w.shares {
		if vals[s] > bestV {
			best, bestV = s, vals[s]
		}
		if hasAnyPrefix(s, w.predicted) {
			predicted += vals[s]
		} else {
			other = max(other, vals[s])
		}
	}
	verdict := "confirmed"
	if predicted <= other {
		verdict = "NOT confirmed"
	}
	return fmt.Sprintf("dominant layer: %s %.1f%%; predicted %s at %.1f%% against at most %.1f%% for any other layer: %s",
		best, 100*bestV, strings.Join(w.predicted, " + "), 100*predicted, 100*other, verdict)
}

// report prints the human-readable table: every metric with its unit and
// direction, then the check tally and notes.
func report(out io.Writer, name string, cfg config, defs []metricDef, res *result, rows []string) {
	fmt.Fprintf(out, "== %s  seed=%d  seconds=%g  workers=%d\n", name, cfg.seed, cfg.seconds.Seconds(), cfg.workers)
	for _, m := range defs {
		fmt.Fprintf(out, "  %-38s %14.4f %-6s (%s is better)\n", m.name, res.Metrics[m.name].Value, m.unit, m.better)
	}
	fmt.Fprintf(out, "  %-38s %14.4f %-6s (lower is better; %d failed of %d attempted)\n",
		"failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	for _, r := range rows {
		fmt.Fprintln(out, "  "+r)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
