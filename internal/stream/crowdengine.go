package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// CrowdConfig assembles a streaming engine with an asynchronous crowd
// loop attached. The embedded Config drives the machine side — window
// policy, priors, solver — exactly as for the machine-only Engine; the
// crowd fields bound how the loop spends its budget against the clock.
type CrowdConfig struct {
	Config

	// Platform receives the loop's task batches. An AsyncPlatform's
	// seeded delays model a straggling crowd; any plain Platform is
	// adapted as a perfectly prompt one (crowd.PostDelayed). Required
	// when Budget is positive.
	Platform crowd.Platform
	// Budget is the total number of unit-priced tasks the run may
	// charge; 0 disables the crowd loop entirely (the engine then ticks
	// identically to the machine-only Engine). The budget is amortised
	// across ticks: each tick posts at most TasksPerTick tasks and
	// reserves a unit per in-flight task, charging only when an answer
	// for a still-live object arrives (charge-on-answer) and refunding
	// reservations for expired tasks and stale answers.
	Budget int
	// TasksPerTick caps the tasks posted per tick (<= 0: 1) — the
	// amortisation grain. A smaller value spreads the budget over more
	// of the stream; a larger one answers questions about the current
	// window faster.
	TasksPerTick int
	// TaskDeadline is how many ticks an unanswered task stays in flight:
	// a task posted at tick T expires at the start of tick
	// T+TaskDeadline+1 and its reservation is refunded (<= 0: 2 ticks).
	// Answers arriving within TaskDeadline ticks are ingested; later
	// ones are dropped as late.
	TaskDeadline int
	// Strategy picks the expression-selection strategy (core.FBS/UBS/
	// HHS); M is the HHS early-stop parameter, required positive for
	// HHS.
	Strategy core.Strategy
	M        int
	// Rng drives selection tie-breaking. Required when Budget is
	// positive; seed it — together with the platform's seed it fully
	// determines the run.
	Rng *rand.Rand
}

// CrowdLedger is the per-tick staleness ledger — what the crowd loop
// did and what the window's churn cost it. Totals accumulates the same
// fields over the run.
type CrowdLedger struct {
	// Posted counts tasks shipped this tick; PostFailed counts
	// round-level Post failures (the batch was not listed — the loop
	// re-selects next tick rather than blocking or retrying in-tick).
	Posted     int
	PostFailed int
	// Arrived counts answers delivered this tick, including the ones
	// discarded below; Absorbed counts answers folded into the
	// knowledge; Conflicts counts answers rejected for contradicting
	// earlier knowledge (charged — the crowd did the work).
	Arrived   int
	Absorbed  int
	Conflicts int
	// Stale counts answers discarded because their object left the
	// window first (refunded); Late counts answers for tasks that had
	// already expired (their expiry already refunded them); Expired
	// counts in-flight tasks retired overdue this tick (refunded).
	Stale   int
	Late    int
	Expired int
	// Charged and Refunded are the tick's budget movements in task
	// units: Charged for ingested answers (absorbed or conflicting),
	// Refunded for expired tasks and stale answers.
	Charged  int
	Refunded int
}

// add folds one tick's ledger into a running total.
func (l *CrowdLedger) add(t CrowdLedger) {
	l.Posted += t.Posted
	l.PostFailed += t.PostFailed
	l.Arrived += t.Arrived
	l.Absorbed += t.Absorbed
	l.Conflicts += t.Conflicts
	l.Stale += t.Stale
	l.Late += t.Late
	l.Expired += t.Expired
	l.Charged += t.Charged
	l.Refunded += t.Refunded
}

// CrowdTickResult is a TickResult plus the tick's crowd ledger and the
// loop's budget position at tick end.
type CrowdTickResult struct {
	TickResult
	// Crowd is this tick's staleness ledger.
	Crowd CrowdLedger
	// InFlight is the number of tasks awaiting an answer at tick end.
	InFlight int
	// BudgetSpent and BudgetReserved are the cumulative charge and the
	// outstanding reservations; Budget-BudgetSpent-BudgetReserved is
	// what the next tick may post.
	BudgetSpent    int
	BudgetReserved int
	// Lagging reports that the crowd fell behind the window this tick —
	// a task expired, an answer arrived stale or late, or a Post failed.
	// The answer set is still served every tick (the machine-only
	// skyline plus whatever answers did land in time); Lagging flags
	// that crowd work was lost to churn.
	Lagging bool
}

// inflightTask is one posted, not-yet-resolved task.
type inflightTask struct {
	task   crowd.Task
	posted int // tick it was posted
	done   bool
}

// scheduledAnswer is an answer in transit: delivered by the platform at
// post time, held until its arrival tick.
type scheduledAnswer struct {
	ans    crowd.Answer
	posted int
}

// CrowdEngine interleaves the budgeted crowd loop with window ticks.
// Each Tick runs evict → expire-overdue-tasks → ingest-arrived-answers
// → insert → select-and-post → re-evaluate: the machine side is the
// incremental Engine unchanged, and the crowd steps in between absorb
// whatever answers the (possibly lagging) crowd has produced. Every
// answer races the eviction of the object it describes; the loop
// detects the losers — by liveness check first, and structurally by
// Knowledge's Absorb-after-Forget tombstones — discards them, and
// refunds their reservation, so a lagging crowd degrades the run to the
// machine-only skyline instead of corrupting it.
//
// A tick never blocks on the crowd: Post failures are booked and
// retried by natural re-selection next tick, and unanswered tasks
// expire at their deadline. Determinism follows the engine's logical
// clock — the platform's delays, the selection tie-breaks and the trace
// are all pure functions of the seeds, byte-identical at any worker
// count.
//
// CrowdEngine is single-writer like Engine: Tick and the accessors must
// not be called concurrently.
type CrowdEngine struct {
	eng *Engine
	cfg CrowdConfig
	opt core.Options // selection knobs for core.SelectTasks

	know *ctable.Knowledge
	ab   *core.Absorption
	// base snapshots each variable's prior so absorption can renormalise
	// the effective distribution (in eng.ev.Dists) without losing it.
	base prob.Dists
	// conds caches each live object's simplified condition, refreshed at
	// the re-evaluate step; task selection reads it one step earlier, so
	// a tick's selection sees the window as of the previous
	// re-evaluation.
	conds map[int]*ctable.Condition

	inflight     []*inflightTask
	inflightExpr map[ctable.Expr]*inflightTask
	mailbox      map[int][]scheduledAnswer // arrival tick -> answers, post order

	spent    int
	reserved int
	totals   CrowdLedger

	touched map[ctable.Var]bool

	// Per-tick scratch maps, reused across ticks (Tick is a hot-loop
	// root): the in-flight variable set for selection, the answered-task
	// set of a post round, and the re-evaluation's stale-id set.
	busyScratch     map[ctable.Var]bool
	answeredScratch map[ctable.Expr]bool
	staleScratch    map[int]bool

	cPosted, cExpired, cAnswers, cStale *obs.Counter
}

// NewCrowd validates the configuration and returns an empty engine.
// The crowd loop needs the incremental engine's delta c-table, so
// Config.Rebuild is rejected when the budget is positive.
func NewCrowd(cfg CrowdConfig) (*CrowdEngine, error) {
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("stream: negative crowd budget %d", cfg.Budget)
	}
	if cfg.Budget > 0 {
		if cfg.Rebuild {
			return nil, fmt.Errorf("stream: the crowd loop requires the incremental engine (Rebuild is the machine-only baseline)")
		}
		if cfg.Platform == nil {
			return nil, fmt.Errorf("stream: crowd budget %d needs a Platform", cfg.Budget)
		}
		if cfg.Rng == nil {
			return nil, fmt.Errorf("stream: crowd budget %d needs a seeded Rng", cfg.Budget)
		}
		if cfg.Strategy == core.HHS && cfg.M <= 0 {
			return nil, fmt.Errorf("stream: HHS requires a positive M, got %d", cfg.M)
		}
	}
	if cfg.TasksPerTick <= 0 {
		cfg.TasksPerTick = 1
	}
	if cfg.TaskDeadline <= 0 {
		cfg.TaskDeadline = 2
	}
	eng, err := New(cfg.Config)
	if err != nil {
		return nil, err
	}
	c := &CrowdEngine{
		eng:          eng,
		cfg:          cfg,
		know:         ctable.NewKnowledge(dataset.New(cfg.Attrs)),
		base:         prob.Dists{},
		conds:        map[int]*ctable.Condition{},
		inflightExpr: map[ctable.Expr]*inflightTask{},
		mailbox:      map[int][]scheduledAnswer{},
		touched:      map[ctable.Var]bool{},

		busyScratch:     map[ctable.Var]bool{},
		answeredScratch: map[ctable.Expr]bool{},
		staleScratch:    map[int]bool{},
	}
	c.ab = &core.Absorption{
		Know: c.know, Base: c.base, Eff: eng.ev.Dists,
		Touched: c.touched,
	}
	c.opt = core.Options{
		Strategy: cfg.Strategy,
		M:        cfg.M,
		Workers:  parallel.Workers(cfg.Workers),
		Rng:      cfg.Rng,
		Trace:    cfg.Obs,
	}
	if reg := cfg.Metrics; reg != nil {
		c.cPosted = reg.Counter("stream.tasks.posted")
		c.cExpired = reg.Counter("stream.tasks.expired")
		c.cAnswers = reg.Counter("stream.tasks.answered")
		c.cStale = reg.Counter("stream.tasks.stale")
	}
	return c, nil
}

// Len returns the number of live window objects.
func (c *CrowdEngine) Len() int { return c.eng.Len() }

// Snapshot returns the live objects' current probabilities, ascending
// by stream id.
func (c *CrowdEngine) Snapshot() []Ranked { return c.eng.Snapshot() }

// Totals returns the run's accumulated crowd ledger.
func (c *CrowdEngine) Totals() CrowdLedger { return c.totals }

// Spent reports the budget units charged for ingested answers so far.
func (c *CrowdEngine) Spent() int { return c.spent }

// Reserved reports the budget units held by in-flight tasks — refunded
// if they expire or their answer arrives stale, charged otherwise.
func (c *CrowdEngine) Reserved() int { return c.reserved }

// InFlight returns the number of tasks awaiting an answer.
func (c *CrowdEngine) InFlight() int { return len(c.inflightExpr) }

// Tick advances the stream clock to now, runs the machine steps and the
// crowd steps interleaved, and returns the tick's delta, answer set and
// crowd ledger. It never blocks on the platform and never returns an
// error: crowd failures degrade the tick (see CrowdTickResult.Lagging),
// they do not stop the window.
func (c *CrowdEngine) Tick(now int64, arrivals [][]dataset.Cell) CrowdTickResult {
	e := c.eng
	e.beginTick(now)
	var res CrowdTickResult
	clear(c.touched)

	// Evict, then retract: the knowledge recorded about the retired
	// variables is tombstoned, so a stale answer racing this eviction
	// cannot be absorbed even if every later check were bypassed.
	evictedVars := e.evictStep(now, len(arrivals), &res.TickResult)
	if len(evictedVars) > 0 {
		c.know.Forget(evictedVars...)
		for _, v := range evictedVars {
			delete(c.base, v)
		}
	}
	for _, id := range res.Evicted {
		delete(c.conds, id)
	}

	c.expireTasks(&res.Crowd)
	c.ingest(&res.Crowd)

	e.insertStep(now, arrivals, &res.TickResult, func(id int, vars []ctable.Var) {
		for _, v := range vars {
			c.base[v] = e.ev.Dists[v]
		}
	})

	c.postStep(&res.Crowd)
	// A prompt crowd (delay 0) answers within the posting tick: drain
	// what just landed so this tick's re-evaluation already reflects it.
	c.ingest(&res.Crowd)

	c.reeval(&res.TickResult)
	e.finish(&res.TickResult)

	res.InFlight = len(c.inflightExpr)
	res.BudgetSpent = c.spent
	res.BudgetReserved = c.reserved
	res.Lagging = res.Crowd.Expired+res.Crowd.Stale+res.Crowd.Late+res.Crowd.PostFailed > 0
	c.totals.add(res.Crowd)
	e.endTick(len(arrivals), &res.TickResult)
	return res
}

// expireTasks retires overdue in-flight tasks and refunds their
// reservations. The slice is in posting order, so the scan and its
// events are deterministic.
func (c *CrowdEngine) expireTasks(led *CrowdLedger) {
	keep := c.inflight[:0]
	for _, p := range c.inflight {
		if p.done {
			continue // resolved earlier; drop from the scan
		}
		if c.eng.tick-p.posted <= c.cfg.TaskDeadline {
			keep = append(keep, p)
			continue
		}
		p.done = true
		delete(c.inflightExpr, p.task.Expr)
		c.reserved--
		led.Expired++
		led.Refunded++
		c.cExpired.Add(1)
		c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskExpire, Task: p.task.Expr.String(), N: p.posted, M: 1})
	}
	c.inflight = keep
}

// ingest drains the answers due at the current tick, in the order they
// were scheduled. Each answer resolves its task and is then absorbed,
// discarded as stale (its object was evicted — refunded), or discarded
// as late (its task already expired — the expiry refunded it).
//
// Tasks are keyed by expression, so an answer from an expired posting
// resolves a later re-posting of the identical question: the question
// is the same, the answer is valid for it, and the still-slower second
// answer is then discarded as late. A badly lagging crowd thus salvages
// some work without double-charging.
func (c *CrowdEngine) ingest(led *CrowdLedger) {
	due := c.mailbox[c.eng.tick]
	if len(due) == 0 {
		return
	}
	delete(c.mailbox, c.eng.tick)
	for _, sa := range due {
		led.Arrived++
		expr := sa.ans.Task.Expr
		p, ok := c.inflightExpr[expr]
		if !ok || p.done {
			led.Late++
			c.cStale.Add(1)
			c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskStale, Task: expr.String(), Note: "late", N: sa.posted})
			continue
		}
		p.done = true
		delete(c.inflightExpr, expr)
		if !c.liveExpr(expr) {
			c.reserved--
			led.Stale++
			led.Refunded++
			c.cStale.Add(1)
			c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskStale, Task: expr.String(), Note: "evicted", N: sa.posted, M: 1})
			continue
		}
		err := c.ab.Absorb(expr, sa.ans.Rel)
		if err != nil && errors.Is(err, ctable.ErrForgotten) {
			// Unreachable behind the liveness check above (ids are never
			// reused), but the tombstone guard is the safety boundary:
			// treat it exactly like a detected stale answer.
			c.reserved--
			led.Stale++
			led.Refunded++
			c.cStale.Add(1)
			c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskStale, Task: expr.String(), Note: "evicted", N: sa.posted, M: 1})
			continue
		}
		// Charge-on-answer: the crowd did the work, so conflicting
		// answers cost a unit too — only lost work (expiry, staleness)
		// is refunded.
		c.reserved--
		c.spent++
		led.Charged++
		c.cAnswers.Add(1)
		c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskAnswer, Task: expr.String(), Rel: sa.ans.Rel.String(), N: sa.posted})
		if err != nil { // *ConflictError — the only other Absorb failure
			led.Conflicts++
			continue
		}
		led.Absorbed++
	}
}

// liveCond reports whether every variable the condition mentions
// belongs to a live window object.
func (c *CrowdEngine) liveCond(cond *ctable.Condition) bool {
	for _, v := range cond.Vars() {
		if !c.eng.tbl.Live(v.Obj) {
			return false
		}
	}
	return true
}

// liveExpr reports whether every object the expression mentions is
// still in the window.
func (c *CrowdEngine) liveExpr(e ctable.Expr) bool {
	if !c.eng.tbl.Live(e.X.Obj) {
		return false
	}
	if e.Kind == ctable.VarGTVar && !c.eng.tbl.Live(e.Y.Obj) {
		return false
	}
	return true
}

// postStep selects and posts this tick's task batch: at most
// TasksPerTick tasks, bounded by the unreserved budget, conflict-free
// against the in-flight set. Selection reads the conditions and
// probabilities as of the previous re-evaluation — this tick's arrivals
// become candidates next tick, which is the asynchrony doing its job.
func (c *CrowdEngine) postStep(led *CrowdLedger) {
	if c.cfg.Budget <= 0 || c.cfg.Platform == nil {
		return
	}
	k := c.cfg.TasksPerTick
	if spendable := c.cfg.Budget - c.spent - c.reserved; k > spendable {
		k = spendable
	}
	if k <= 0 {
		return
	}
	objs := make([]int, 0, len(c.conds))
	for id, cond := range c.conds {
		if _, decided := cond.Decided(); decided {
			continue
		}
		// The cached conditions date from the previous re-evaluation, so
		// one may still mention an object this tick just evicted. Skip
		// such candidates: scoring would re-solve a condition whose
		// evicted variables no longer have distributions, and any answer
		// bought about them would arrive stale anyway. The survivors
		// re-enter selection next tick, refreshed.
		if !c.liveCond(cond) {
			continue
		}
		objs = append(objs, id)
	}
	if len(objs) == 0 {
		return
	}
	sort.Ints(objs)

	busy := c.busyScratch
	clear(busy)
	var vbuf []ctable.Var
	for _, p := range c.inflight {
		if p.done {
			continue
		}
		vbuf = p.task.Expr.Vars(vbuf[:0])
		for _, v := range vbuf {
			busy[v] = true
		}
	}
	tasks := core.SelectTasks(c.opt, objs, func(id int) *ctable.Condition { return c.conds[id] },
		c.eng.ev, c.eng.probs, k, busy)
	// Selection reads last tick's conditions, which may still reference
	// an object this tick just evicted (they refresh at the re-evaluate
	// step, after posting). Asking about it would only buy a guaranteed
	// stale answer — skip rather than waste the budget.
	posted := tasks[:0]
	for _, t := range tasks {
		if c.liveExpr(t.Expr) {
			posted = append(posted, t)
		}
	}
	if len(posted) == 0 {
		return
	}

	answers, err := crowd.PostDelayed(c.cfg.Platform, posted)
	answered := c.answeredScratch
	clear(answered)
	for _, da := range answers {
		answered[da.Task.Expr] = true
	}
	for _, t := range posted {
		if err != nil && !answered[t.Expr] {
			// Round-level failure: tasks without an answer were never
			// listed — nothing to reserve, nothing in flight. The loop
			// re-selects next tick instead of blocking or retrying now.
			continue
		}
		p := &inflightTask{task: t, posted: c.eng.tick}
		c.inflight = append(c.inflight, p)
		c.inflightExpr[t.Expr] = p
		c.reserved++
		led.Posted++
		c.cPosted.Add(1)
		c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskPost, Task: t.Expr.String(), N: c.eng.tick + c.cfg.TaskDeadline, M: 1})
	}
	if err != nil {
		led.PostFailed++
	}
	for _, da := range answers {
		delay := da.Delay
		if delay < 0 {
			delay = 0
		}
		c.mailbox[c.eng.tick+delay] = append(c.mailbox[c.eng.tick+delay],
			scheduledAnswer{ans: da.Answer, posted: c.eng.tick})
	}
}

// reeval refreshes the conditions the tick's edits and answers touched
// and re-solves their probabilities: the table's dirty set (structure
// changes from inserts and evictions) plus every live condition that
// mentions a variable an absorbed answer narrowed. With an empty
// knowledge the step is exactly the machine engine's — same dirty set,
// no simplification — so a zero-budget run is bit-identical to Engine.
func (c *CrowdEngine) reeval(res *TickResult) {
	e := c.eng
	dirty := e.tbl.DrainDirty()
	staleSet := c.staleScratch
	clear(staleSet)
	for _, id := range dirty {
		staleSet[id] = true
	}
	if len(c.touched) > 0 {
		for id, cond := range c.conds {
			if staleSet[id] {
				continue
			}
			for _, v := range cond.Vars() {
				if c.touched[v] {
					staleSet[id] = true
					break
				}
			}
		}
	}
	stale := make([]int, 0, len(staleSet))
	for id := range staleSet {
		stale = append(stale, id)
	}
	sort.Ints(stale)

	conds := make([]*ctable.Condition, len(stale))
	knowEmpty := c.know.Empty()
	for i, id := range stale {
		cond := e.tbl.Cond(id)
		if !knowEmpty {
			cond.Simplify(c.know)
		}
		c.conds[id] = cond
		conds[i] = cond
	}
	ps := e.ev.ProbAll(conds, parallel.Workers(e.cfg.Workers))
	for i, id := range stale {
		e.probs[id] = ps[i]
	}
	res.Recomputed = len(stale)
}
