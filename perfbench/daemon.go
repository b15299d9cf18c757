package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/prob"
	"bayescrowd/internal/service"
	"bayescrowd/internal/skyline"
)

const (
	daemonN = 2000
	// daemonDatasets are registered at set-up and queried in rotation.
	// Query cost follows the learned network and the data, so one dataset
	// per run made the run-to-run spread follow the seed.
	daemonDatasets = 24
	// pollEvery is the client's wait between status polls.
	pollEvery = 2 * time.Millisecond
)

var daemonStrategies = []string{"FBS", "UBS", "HHS"}

// daemonCombos is the number of (dataset, strategy) pairs the closed loop
// cycles through; each has a library reference run in the pre-pass.
const daemonCombos = daemonDatasets * 3

// daemonBench runs the service in process on a loopback listener with
// daemonDatasets registered datasets. A closed loop keeps one pair of
// queries in flight that share dataset, strategy and seed, so their
// crowd tasks deduplicate. The benchmark's own task sink answers
// every opened task from the ground truth through POST
// /v1/answers/{taskid}.
type daemonBench struct {
	cfg     config
	sets    []*daemonSet
	refs    []*core.Result // library answer per combo
	refMS   []float64      // library wall time per combo
	learnMS float64
	postMS  float64
	missing int
	pattern int

	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	sink   *answerSink
	served chan error // Serve's return, once it has stopped
	regMS  []float64
	next   atomic.Int64
}

// daemonSet is one registered dataset and its ground truth.
type daemonSet struct {
	name     string
	d, truth *dataset.Dataset
	sky      []int
	body     []byte // the POST /v1/datasets request
}

// combo maps query i to its (dataset, strategy) pair; consecutive pairs
// of queries share it.
func (b *daemonBench) combo(i int64) int { return int((i / 2) % daemonCombos) }

func (b *daemonBench) request(c int) service.QueryRequest {
	return service.QueryRequest{
		Dataset:  b.sets[c%daemonDatasets].name,
		Alpha:    0.003,
		Budget:   50,
		Latency:  5,
		Strategy: daemonStrategies[c/daemonDatasets],
		M:        15,
		Seed:     b.cfg.seed*1000 + int64(c) + 1,
	}
}

func newDaemonSet(seed int64, k int) (*daemonSet, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	s := &daemonSet{name: fmt.Sprintf("nba%d", k), truth: dataset.GenNBA(rng, daemonN)}
	s.d = s.truth.InjectMissing(rng, missingRate)
	s.sky = skyline.BNL(s.truth)
	req := service.DatasetRequest{Name: s.name}
	for _, a := range s.d.Attrs {
		req.Attrs = append(req.Attrs, service.AttrSpec{Name: a.Name, Levels: a.Levels})
	}
	for i := range s.d.Objects {
		row := make([]*int, s.d.NumAttrs())
		for j, c := range s.d.Objects[i].Cells {
			if !c.Missing {
				v := c.Value
				row[j] = &v
			}
		}
		req.Rows = append(req.Rows, row)
	}
	var err error
	if s.body, err = json.Marshal(req); err != nil {
		return nil, fmt.Errorf("encode dataset: %w", err)
	}
	return s, nil
}

func (b *daemonBench) prepare(cfg config) ([]float64, *phase, error) {
	b.cfg = cfg
	for k := 0; k < daemonDatasets; k++ {
		s, err := newDaemonSet(cfg.seed, k)
		if err != nil {
			return nil, nil, err
		}
		b.sets = append(b.sets, s)
	}
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.workers,
		MaxIdleConnsPerHost: cfg.workers,
	}}

	// Set-up is registering a dataset over HTTP (the first also starts
	// the server); setup_s is the median over the datasets.
	start := time.Now()
	if err := b.start(); err != nil {
		return nil, nil, err
	}
	var setup []float64
	for _, s := range b.sets {
		r0 := time.Now()
		var info service.DatasetInfo
		if err := b.call(http.MethodPost, "/v1/datasets", s.body, http.StatusCreated, &info); err != nil {
			return nil, nil, fmt.Errorf("register dataset: %w", err)
		}
		b.regMS = append(b.regMS, ms(time.Since(r0)))
		setup = append(setup, time.Since(start).Seconds())
		start = time.Now()
	}

	// The register call split from outside: the same network learning
	// and posterior inference the daemon runs, timed by layer per
	// dataset. Their posteriors are the library side of the pre-pass.
	pre := newPhase()
	var libs []prob.Dists
	var learnMS, postMS []float64
	for _, s := range b.sets {
		t0 := time.Now()
		net, err := core.LearnNetwork(s.d, bayesnet.LearnOptions{})
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		base, err := core.Preprocess(s.d, core.Options{Net: net, Workers: cfg.workers})
		if err != nil {
			return nil, nil, err
		}
		learnMS, postMS = append(learnMS, ms(t1.Sub(t0))), append(postMS, ms(time.Since(t1)))
		libs = append(libs, base)
	}
	b.learnMS, b.postMS = median(learnMS), median(postMS)
	b.missing = len(libs[0])
	b.pattern = evidencePatterns(b.sets[0].d)
	// The daemon preprocesses with core.Preprocess, which learns the
	// network itself; the split must give the same posteriors.
	whole, err := core.Preprocess(b.sets[0].d, core.Options{Workers: cfg.workers})
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(whole, libs[0]) {
		pre.check(errors.New("posteriors from the split learn + preprocess differ from core.Preprocess"))
	}

	// Untimed pre-pass: the library answer of every combo; each daemon
	// query must match its combo's.
	for c := 0; c < daemonCombos; c++ {
		req := b.request(c)
		set := b.sets[c%daemonDatasets]
		strategy := map[string]core.Strategy{"FBS": core.FBS, "UBS": core.UBS, "HHS": core.HHS}[req.Strategy]
		opt := core.Options{Alpha: req.Alpha, Budget: req.Budget, Latency: req.Latency, Strategy: strategy,
			M: req.M, Workers: cfg.workers, Rng: rand.New(rand.NewSource(req.Seed))}
		start := time.Now()
		res, err := core.RunWithDists(set.d, libs[c%daemonDatasets], crowd.NewSimulated(set.truth, 1.0, nil), opt)
		if err != nil {
			return nil, nil, fmt.Errorf("library reference: %w", err)
		}
		b.refMS = append(b.refMS, ms(time.Since(start)))
		b.refs = append(b.refs, res)
	}
	return setup, pre, nil
}

// start launches the server, its listener and the answer sink.
func (b *daemonBench) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	b.url = "http://" + ln.Addr().String()
	truths := map[string]*dataset.Dataset{}
	for _, s := range b.sets {
		truths[s.name] = s.truth
	}
	b.sink = newAnswerSink(truths, b.client, b.cfg.delay, b.url)
	// The task deadline only matters if a callback is lost: the task
	// expires, the query degrades and its check fails instead of hanging.
	b.srv = service.New(service.Config{Workers: b.cfg.workers, MaxConcurrent: b.cfg.workers,
		Sink: b.sink, TaskDeadline: 10 * time.Second})
	b.srv.Start()
	b.sink.start()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	//lint:ignore goroutine the HTTP server's accept loop outlives this call; stop joins it through served after Shutdown
	go func() { b.served <- b.hs.Serve(ln) }()
	return nil
}

// stop drains the service, shuts the HTTP server down and stops the
// sink, waiting for each.
func (b *daemonBench) stop() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Drain(ctx)
	if serr := b.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-b.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	b.sink.stop()
	b.client.CloseIdleConnections()
	b.srv = nil
	if err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	return nil
}

func (b *daemonBench) rewind() { b.next.Store(0) }

func (b *daemonBench) close() {
	if err := b.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// call makes one JSON request and decodes the response into out.
func (b *daemonBench) call(method, path string, body []byte, want int, out any) error {
	return doJSON(b.client, method, b.url+path, body, want, out)
}

func doJSON(c *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return nil
}

// daemonStats is what one phase's clients and sink accumulate.
type daemonStats struct {
	mu        sync.Mutex
	submitMS  []float64
	pollMS    []float64
	callback  []float64
	openToAns []float64
	requested float64
	shared    float64
	opened    float64
	coreMS    float64
	tasks     float64
	rounds    float64
	roots     map[string]int // query id -> root span, for callback spans
	ops       map[string]int64
}

func (b *daemonBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	st := &daemonStats{roots: map[string]int{}, ops: map[string]int64{}}
	b.sink.setPhase(st, tr)
	reg := b.srv.Registry()
	before := registrySnapshot(reg)

	// One caller keeps one pair of identical queries in flight, so two
	// queries run at once and every pair's tasks deduplicate.
	start := time.Now()
	var err error
	for err == nil && time.Since(start) < d {
		err = b.pair(p, st, tr)
	}
	p.busy = time.Since(start)
	b.sink.setPhase(nil, nil)
	if err != nil {
		return nil, err
	}
	after := registrySnapshot(reg)
	for k, v := range after {
		p.sums["reg."+k] = v - before[k]
	}
	s := p.sums
	s["submit_ms"], s["poll_ms"], s["polls"] = mean(st.submitMS), mean(st.pollMS), float64(len(st.pollMS))
	s["callback_p50"], s["callback_tail"] = median(st.callback), percentile(st.callback, 99)
	s["callback_sum"] = sum(st.callback)
	s["open_to_answer"] = mean(st.openToAns)
	s["requested"], s["shared"], s["opened"] = st.requested, st.shared, st.opened
	s["core_ms"], s["tasks"], s["rounds"] = st.coreMS, st.tasks, st.rounds
	s["report.callback_p50_ms"] = s["callback_p50"]
	s["report.callback_p99_ms"] = s["callback_tail"]
	s["report.callbacks"] = float64(len(st.callback))
	s["report.dedup_ratio"] = ratio(st.shared, st.requested)
	return p, nil
}

// inflight is one submitted query as its client tracks it.
type inflight struct {
	i     int64
	root  int
	t0    time.Time
	t1    time.Time
	qs    service.QueryStatus
	polls []float64
}

// pair submits two queries with the same strategy and seed, polls both
// to completion and checks them.
func (b *daemonBench) pair(p *phase, st *daemonStats, tr *tracer) error {
	first := b.next.Add(2) - 2
	qs := []*inflight{{i: first}, {i: first + 1}}
	for _, q := range qs {
		body, err := json.Marshal(b.request(b.combo(q.i)))
		if err != nil {
			return err
		}
		q.t0 = time.Now()
		q.root = tr.open("daemon.query", q.i, -1, q.t0)
		if err := b.call(http.MethodPost, "/v1/queries", body, http.StatusAccepted, &q.qs); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		s1 := time.Now()
		tr.add("service.submit", q.i, q.root, q.t0, s1)
		st.mu.Lock()
		st.submitMS = append(st.submitMS, ms(s1.Sub(q.t0)))
		st.roots[q.qs.ID], st.ops[q.qs.ID] = q.root, q.i
		st.mu.Unlock()
	}
	for open := len(qs); open > 0; {
		time.Sleep(pollEvery)
		open = 0
		for _, q := range qs {
			if !q.t1.IsZero() {
				continue
			}
			if time.Since(q.t0) > time.Minute {
				return fmt.Errorf("query %s still %s after a minute", q.qs.ID, q.qs.State)
			}
			p0 := time.Now()
			if err := b.call(http.MethodGet, "/v1/queries/"+q.qs.ID, nil, http.StatusOK, &q.qs); err != nil {
				return fmt.Errorf("poll: %w", err)
			}
			p1 := time.Now()
			tr.add("service.poll", q.i, q.root, p0, p1)
			q.polls = append(q.polls, ms(p1.Sub(p0)))
			if q.qs.State == service.StateDone || q.qs.State == service.StateFailed {
				q.t1 = p1
				tr.close(q.root, p1)
			} else {
				open++
			}
		}
	}
	for _, q := range qs {
		b.record(p, st, q)
	}
	return nil
}

// record checks one finished query against its library reference and
// books its numbers.
func (b *daemonBench) record(p *phase, st *daemonStats, q *inflight) {
	c := b.combo(q.i)
	want := b.refs[c]
	qs := q.qs
	var cerr error
	switch {
	case qs.State != service.StateDone:
		cerr = fmt.Errorf("query %s failed: %s", qs.ID, qs.Error)
	case qs.Result.Degraded:
		cerr = fmt.Errorf("query %s degraded: %s", qs.ID, qs.Result.DegradedReason)
	case !reflect.DeepEqual(qs.Result.Answers, append([]int{}, want.Answers...)):
		cerr = fmt.Errorf("query %s: daemon answers %v, library %v", qs.ID, qs.Result.Answers, want.Answers)
	case qs.Result.TasksPosted != want.TasksPosted || qs.Result.Rounds != want.Rounds || qs.Result.BudgetSpent != want.BudgetSpent:
		cerr = fmt.Errorf("query %s: cost differs from the library run", qs.ID)
	case !qs.Ledger.Conserved() || qs.Ledger.InFlight != 0:
		cerr = fmt.Errorf("query %s: ledger %+v not conserved or still in flight", qs.ID, qs.Ledger)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	p.check(cerr)
	p.ops = append(p.ops, ms(q.t1.Sub(q.t0)))
	p.units++
	st.pollMS = append(st.pollMS, q.polls...)
	st.requested += float64(qs.Ledger.Requested)
	st.shared += float64(qs.Ledger.Shared)
	st.coreMS += b.refMS[c]
	if qs.Result != nil {
		p.f1 = append(p.f1, metrics.F1(qs.Result.Answers, b.sets[c%daemonDatasets].sky))
		st.tasks += float64(qs.Result.TasksPosted)
		st.rounds += float64(qs.Result.Rounds)
	}
}

func (b *daemonBench) layers(p *phase, _ *tracer) map[string]float64 {
	s := p.sums
	n := float64(len(p.ops))
	total := sum(p.ops)
	httpMS := s["submit_ms"]*n + s["callback_sum"]
	return map[string]float64{
		"bayesnet.learn_ms":              b.learnMS,
		"preprocess.posterior_ms":        b.postMS,
		"preprocess.missing_cells":       float64(b.missing),
		"preprocess.evidence_patterns":   float64(b.pattern),
		"select.ms":                      ratio(s["reg.select_ms"], n),
		"select.tasks_posted":            ratio(s["tasks"], n),
		"select.rounds":                  ratio(s["rounds"], n),
		"prob.ms":                        ratio(s["reg.prob_ms"], n),
		"prob.cache_hit_ratio":           ratio(s["reg.hits"], s["reg.hits"]+s["reg.misses"]),
		"prob.cache_lookups":             ratio(s["reg.hits"]+s["reg.misses"], n),
		"prob.cache_invalidated_entries": ratio(s["reg.inval"], n),
		"service.register_ms":            median(b.regMS),
		"service.submit_ms":              s["submit_ms"],
		"service.poll_ms":                s["poll_ms"],
		"service.polls":                  ratio(s["polls"], n),
		"service.task_open_to_answer_ms": s["open_to_answer"],
		"service.callback_p50_ms":        s["callback_p50"],
		"service.callback_tail_ms":       s["callback_tail"],
		"service.dedup_ratio":            ratio(s["shared"], s["requested"]),
		"service.dedup_requested":        ratio(s["requested"], n),
		"service.tasks_opened":           ratio(s["opened"], n),
		"share.service.http":             ratio(httpMS, total),
		"share.service.core":             ratio(s["core_ms"], total),
	}
}

// registrySnapshot reads the core counters the service's queries write
// into its registry.
func registrySnapshot(reg *obs.Registry) map[string]float64 {
	return map[string]float64{
		"select_ms": ms(reg.Histogram("select.duration").Sum()),
		"prob_ms":   ms(reg.Histogram("prob.duration").Sum()),
		"hits":      float64(reg.Counter("cache.hits").Value()),
		"misses":    float64(reg.Counter("cache.misses").Value()),
		"inval":     float64(reg.Counter("cache.invalidated.entries").Value()),
	}
}

// answerSink is the benchmark's service.TaskSink: one worker answers
// every opened task from the ground truth with a POST
// /v1/answers/{taskid} callback, like one marketplace connection.
type answerSink struct {
	truth  map[string]*dataset.Dataset // by registered name
	client *http.Client
	delay  time.Duration
	url    string

	queue chan openedTask
	quit  chan struct{}
	wg    sync.WaitGroup

	mu sync.Mutex
	st *daemonStats // guarded by mu; nil between phases
	tr *tracer      // guarded by mu
}

type openedTask struct {
	service.PostedTask
	opened time.Time
}

func newAnswerSink(truth map[string]*dataset.Dataset, client *http.Client, delay time.Duration, url string) *answerSink {
	return &answerSink{
		truth: truth, client: client, delay: delay, url: url,
		// Open tasks are bounded by the queries in flight times the
		// per-round batch (⌈B/L⌉ = 10); 1024 leaves Notify never blocking.
		queue: make(chan openedTask, 1024),
		quit:  make(chan struct{}),
	}
}

func (s *answerSink) setPhase(st *daemonStats, tr *tracer) {
	s.mu.Lock()
	s.st, s.tr = st, tr
	s.mu.Unlock()
}

// Notify implements service.TaskSink.
func (s *answerSink) Notify(tasks []service.PostedTask) {
	now := time.Now()
	for _, t := range tasks {
		select {
		case s.queue <- openedTask{PostedTask: t, opened: now}:
		case <-s.quit:
			return
		}
	}
}

func (s *answerSink) start() {
	s.wg.Add(1)
	//lint:ignore goroutine the sink's single answer worker is a long-lived marketplace connection; stop joins it via the WaitGroup
	go func() {
		defer s.wg.Done()
		for {
			select {
			case t := <-s.queue:
				s.answer(t)
			case <-s.quit:
				return
			}
		}
	}()
}

// stop ends the worker; tasks still queued are failed by the server's
// drain, which runs first.
func (s *answerSink) stop() {
	close(s.quit)
	s.wg.Wait()
}

func (s *answerSink) answer(t openedTask) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	body, err := json.Marshal(service.AnswerRequest{Rel: ctable.TrueRel(s.truth[t.Dataset], t.Task.Expr).String()})
	if err != nil {
		return
	}
	c0 := time.Now()
	var receipt service.AnswerReceipt
	err = doJSON(s.client, http.MethodPost, s.url+"/v1/answers/"+t.ID, body, http.StatusOK, &receipt)
	c1 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return
	}
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		// A failed callback leaves the query waiting; the query's own
		// check reports it, so here it is only counted.
		st.opened++
		return
	}
	st.opened++
	st.callback = append(st.callback, ms(c1.Sub(c0)))
	st.openToAns = append(st.openToAns, ms(c1.Sub(t.opened)))
	if len(receipt.Queries) > 0 {
		if root, ok := st.roots[receipt.Queries[0]]; ok {
			s.tr.add("service.callback", st.ops[receipt.Queries[0]], root, c0, c1)
		}
	}
}
