package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/skyline"
)

// batchSpec is one batch workload: the generator, the size and the
// paper's default query options for that data (§7).
type batchSpec struct {
	gen func(*rand.Rand, int) *dataset.Dataset
	n   int
	opt core.Options
}

var (
	nbaSpec = batchSpec{gen: dataset.GenNBA, n: 10000,
		opt: core.Options{Alpha: 0.003, Budget: 50, Latency: 5, Strategy: core.UBS, M: 15}}
	synSpec = batchSpec{gen: dataset.GenAdultSynthetic, n: 3000,
		opt: core.Options{Alpha: 0.01, Budget: 1000, Latency: 10, Strategy: core.HHS, M: 50}}
)

// missingRate is the share of cells every workload hides.
const missingRate = 0.10

var batchShares = []string{
	"share.bayesnet.learn", "share.preprocess.posterior", "share.ctable.build",
	"share.select", "share.prob", "share.crowdphase.other", "share.crowd.post",
}

// batchBench runs skyline queries back to back from one caller. Query q
// runs on its own dataset and selection seed, both derived from the run
// seed and q: the learned network, and so every layer's cost, varies
// with the data, and one dataset per run made run-to-run spread follow
// the seed rather than the code. Each query is broken into the calls
// bayescrowd.Run makes: core.LearnNetwork, core.Preprocess with Net set,
// ctable.Build and core.RunCrowdPhase.
type batchBench struct {
	spec batchSpec
	cfg  config
	next int // next query's index
}

// batchInput is one query's data: the program's input parsed from CSV,
// the crowd's ground truth and the complete-data skyline.
type batchInput struct {
	d, truth *dataset.Dataset
	sim      *crowd.Simulated
	sky      []int
	patterns int           // distinct (target, evidence) pairs in d
	parse    time.Duration // the program reading its input: one set-up
}

func (b *batchBench) input(q int) (*batchInput, error) {
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + int64(q)))
	truth := b.spec.gen(rng, b.spec.n)
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, truth.InjectMissing(rng, missingRate)); err != nil {
		return nil, fmt.Errorf("encode input: %w", err)
	}
	start := time.Now()
	d, err := dataset.ReadCSV(&csv)
	parse := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("read input: %w", err)
	}
	return &batchInput{d: d, truth: truth, sim: crowd.NewSimulated(truth, 1.0, nil),
		sky: skyline.BNL(truth), patterns: evidencePatterns(d), parse: parse}, nil
}

func (b *batchBench) options(q int) core.Options {
	opt := b.spec.opt
	opt.Workers = b.cfg.workers
	opt.Rng = rand.New(rand.NewSource(b.cfg.seed*7_919 + int64(q)))
	return opt
}

func (b *batchBench) prepare(cfg config) ([]float64, *phase, error) {
	b.cfg = cfg
	in, err := b.input(0)
	if err != nil {
		return nil, nil, err
	}
	// Untimed pre-pass: the split query answers exactly as core.Run does
	// with the same options and selection seed.
	pre := newPhase()
	want, err := core.Run(in.d, in.sim, b.options(0))
	if err != nil {
		return nil, nil, fmt.Errorf("core.Run: %w", err)
	}
	got, _, err := b.query(0, in, nil, pre)
	if got == nil {
		return nil, nil, fmt.Errorf("split query: %w", err)
	}
	if err == nil && (!reflect.DeepEqual(got.Answers, want.Answers) || got.TasksPosted != want.TasksPosted ||
		got.Rounds != want.Rounds || got.BudgetSpent != want.BudgetSpent) {
		err = fmt.Errorf("split query differs from core.Run: answers %v vs %v, tasks %d vs %d, rounds %d vs %d",
			got.Answers, want.Answers, got.TasksPosted, want.TasksPosted, got.Rounds, want.Rounds)
	}
	pre.check(err)
	fmt.Printf("pre-pass: split query vs core.Run (seed %d): F1 %.4f vs %.4f, %d tasks, %d rounds\n",
		b.cfg.seed, metrics.F1(got.Answers, in.sky), metrics.F1(want.Answers, in.sky), want.TasksPosted, want.Rounds)
	b.next = 1
	return []float64{in.parse.Seconds()}, pre, nil
}

// query runs one split query, books its layer sums into p and returns
// the result and its latency (the four calls, without the benchmark's
// own counting between them).
func (b *batchBench) query(q int, in *batchInput, tr *tracer, p *phase) (*core.Result, time.Duration, error) {
	opt := b.options(q)
	op := int64(q)
	t0 := time.Now()
	root := tr.open("batch.query", op, -1, t0)
	net, err := core.LearnNetwork(in.d, opt.LearnOpts)
	t1 := time.Now()
	tr.add("bayesnet.learn", op, root, t0, t1)
	if err != nil {
		return nil, 0, err
	}
	withNet := opt
	withNet.Net = net
	base, err := core.Preprocess(in.d, withNet)
	t2 := time.Now()
	tr.add("preprocess.posterior", op, root, t1, t2)
	if err != nil {
		return nil, 0, err
	}
	ct := ctable.Build(in.d, ctable.BuildOptions{Alpha: opt.Alpha, Workers: opt.Workers})
	t3 := time.Now()
	tr.add("ctable.build", op, root, t2, t3)

	undecided := ct.Undecided()
	exprs := 0
	for _, o := range undecided {
		exprs += ct.Conds[o].NumExprs()
	}

	t4 := time.Now()
	cp := tr.open("crowdphase", op, root, t4)
	plat := &timedPlatform{inner: in.sim, delay: b.cfg.delay, tr: tr, op: op, parent: cp}
	res, err := core.RunCrowdPhase(in.d, ct, base, plat, opt)
	t5 := time.Now()
	tr.close(cp, t5)
	tr.close(root, t5)
	if err != nil {
		return nil, 0, err
	}
	lat := t3.Sub(t0) + t5.Sub(t4)

	s := p.sums
	s["select_ms"] += ms(res.SelectTime)
	s["prob_ms"] += ms(res.ProbTime)
	s["posts"] += float64(plat.posts)
	s["missing"] += float64(len(base))
	s["patterns"] += float64(in.patterns)
	s["undecided"] += float64(len(undecided))
	s["exprs"] += float64(exprs)
	s["tasks"] += float64(res.TasksPosted)
	s["rounds"] += float64(res.Rounds)
	s["hits"] += float64(res.Cache.Hits)
	s["lookups"] += float64(res.Cache.Hits + res.Cache.Misses)
	s["inval"] += float64(res.Cache.InvalidatedEntries)
	s["queries"]++
	return res, lat, b.checkResult(res, in, plat)
}

// checkResult is the per-query output check of the timed loop: a
// fault-free, perfectly accurate crowd must leave a sound answer.
func (b *batchBench) checkResult(res *core.Result, in *batchInput, plat *timedPlatform) error {
	opt := b.spec.opt
	switch {
	case res.Degraded:
		return fmt.Errorf("query degraded: %s", res.DegradedReason)
	case res.TasksPosted > opt.Budget || res.Rounds > opt.Latency:
		return fmt.Errorf("query spent %d tasks in %d rounds, over B=%d, L=%d", res.TasksPosted, res.Rounds, opt.Budget, opt.Latency)
	case plat.tasks != res.TasksPosted || plat.posts != res.Rounds:
		return fmt.Errorf("crowd saw %d tasks in %d posts, result reports %d in %d", plat.tasks, plat.posts, res.TasksPosted, res.Rounds)
	case !sort.IntsAreSorted(res.Answers):
		return fmt.Errorf("answers not sorted")
	}
	for i, o := range res.Answers {
		if o < 0 || o >= in.d.Len() || (i > 0 && res.Answers[i-1] == o) {
			return fmt.Errorf("answer %d out of range or repeated", o)
		}
	}
	if bad := res.CTable.Verify(in.truth); len(bad) > 0 {
		return fmt.Errorf("%d conditions disagree with the ground truth (first: object %d)", len(bad), bad[0])
	}
	return nil
}

func (b *batchBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	for start := time.Now(); time.Since(start) < d; {
		q := b.next
		b.next++
		in, err := b.input(q)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, in.parse.Seconds())
		res, lat, err := b.query(q, in, tr, p)
		if res == nil {
			return nil, fmt.Errorf("query %d: %w", q, err)
		}
		p.check(err)
		p.ops = append(p.ops, ms(lat))
		p.busy += lat
		p.units++
		p.f1 = append(p.f1, metrics.F1(res.Answers, in.sky))
	}
	return p, nil
}

func (b *batchBench) layers(p *phase, tr *tracer) map[string]float64 {
	s := p.sums
	n := s["queries"]
	self := tr.selfTimes()
	total := sum(p.ops)
	per := func(k string) float64 { return ratio(s[k], n) }
	spanMS := func(name string) float64 { return ms(self[name]) }
	other := spanMS("crowdphase") - s["select_ms"] - s["prob_ms"]
	return map[string]float64{
		"bayesnet.learn_ms":              spanMS("bayesnet.learn") / n,
		"preprocess.posterior_ms":        spanMS("preprocess.posterior") / n,
		"preprocess.missing_cells":       per("missing"),
		"preprocess.evidence_patterns":   per("patterns"),
		"ctable.build_ms":                spanMS("ctable.build") / n,
		"ctable.undecided_conds":         per("undecided"),
		"ctable.exprs":                   per("exprs"),
		"select.ms":                      per("select_ms"),
		"select.tasks_posted":            per("tasks"),
		"select.rounds":                  per("rounds"),
		"prob.ms":                        per("prob_ms"),
		"prob.cache_hit_ratio":           ratio(s["hits"], s["lookups"]),
		"prob.cache_lookups":             per("lookups"),
		"prob.cache_invalidated_entries": per("inval"),
		"crowdphase.other_ms":            other / n,
		"crowd.post_ms":                  spanMS("crowd.post") / n,
		"crowd.posts":                    per("posts"),
		"share.bayesnet.learn":           ratio(spanMS("bayesnet.learn"), total),
		"share.preprocess.posterior":     ratio(spanMS("preprocess.posterior"), total),
		"share.ctable.build":             ratio(spanMS("ctable.build"), total),
		"share.select":                   ratio(s["select_ms"], total),
		"share.prob":                     ratio(s["prob_ms"], total),
		"share.crowdphase.other":         ratio(other, total),
		"share.crowd.post":               ratio(spanMS("crowd.post"), total),
	}
}

func (b *batchBench) rewind() { b.next = 1 }

func (b *batchBench) close() {}

// timedPlatform is the benchmark's crowd.Platform wrapper: it times
// every post (the crowd wait a batch query sees), optionally sleeps for
// the injected delay first, and records a crowd.post span.
type timedPlatform struct {
	inner  crowd.Platform
	delay  time.Duration
	tr     *tracer
	op     int64
	parent int

	posts, tasks int
}

// Post implements crowd.Platform.
func (p *timedPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	start := time.Now()
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	answers, err := p.inner.Post(tasks)
	end := time.Now()
	p.tr.add("crowd.post", p.op, p.parent, start, end)
	p.posts++
	p.tasks += len(tasks)
	return answers, err
}

// evidencePatterns counts the distinct (missing attribute, observed
// cells) pairs of the dataset: the posterior inferences left after
// core's per-evidence memo.
func evidencePatterns(d *dataset.Dataset) int {
	seen := map[string]bool{}
	var key strings.Builder
	for i := range d.Objects {
		cells := d.Objects[i].Cells
		key.Reset()
		for a, c := range cells {
			if !c.Missing {
				key.WriteString(strconv.Itoa(a) + ":" + strconv.Itoa(c.Value) + ",")
			}
		}
		ev := key.String()
		for j, c := range cells {
			if c.Missing {
				seen[strconv.Itoa(j)+"|"+ev] = true
			}
		}
	}
	return len(seen)
}
