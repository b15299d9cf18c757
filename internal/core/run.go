package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/prob"
)

// Run executes the full BayesCrowd framework (Algorithm 1) over an
// incomplete dataset: preprocessing (Bayesian-network posteriors),
// modeling (Get-CTable), and the iterative crowdsourcing phase
// (Algorithm 4 for HHS; the same loop with the FBS or UBS selection rule
// otherwise). Crowd answers are obtained from the given platform.
func Run(d *dataset.Dataset, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}

	base, err := Preprocess(d, opt)
	if err != nil {
		return nil, err
	}

	ct := ctable.Build(d, ctable.BuildOptions{Alpha: opt.Alpha, Workers: opt.Workers})
	return crowdPhase(d, ct, base, platform, opt)
}

// RunWithDists runs the modeling and crowdsourcing phases against
// precomputed missing-value posteriors, skipping preprocessing. The
// benchmark harness uses it to time the framework the way the paper does
// — Bayesian-network training and posterior inference happen offline,
// before the modeling phase — and to reuse one preprocessing pass across
// a parameter sweep.
func RunWithDists(d *dataset.Dataset, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	ct := ctable.Build(d, ctable.BuildOptions{Alpha: opt.Alpha, Workers: opt.Workers})
	return crowdPhase(d, ct, base, platform, opt)
}

// RunCrowdPhase runs only the crowdsourcing phase against an already-built
// c-table and precomputed posteriors. The benchmark harness uses it to
// time task selection and probability maintenance apart from the c-table
// build (which it re-runs untimed per repetition — crowdPhase simplifies
// the table's conditions in place).
func RunCrowdPhase(d *dataset.Dataset, ct *ctable.CTable, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	return crowdPhase(d, ct, base, platform, opt)
}

// crowdPhase runs the crowdsourcing loop against an already-built c-table
// and base posteriors. Exposed within the package so benchmarks can time
// it apart from preprocessing.
func crowdPhase(d *dataset.Dataset, ct *ctable.CTable, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	// The recorder and registry are the run's two observability channels:
	// deterministic events to rec (single-writer sections only), and
	// scheduling-dependent numbers — durations, approx counts — to reg.
	// Both are nil-safe no-ops when disabled.
	rec := opt.Trace
	reg := opt.Metrics
	rec.Emit(obs.Event{Kind: obs.KindRunStart, N: opt.Budget, M: opt.Latency, Note: opt.Strategy.String()})
	var (
		hSelect   = reg.Histogram("select.duration")
		hProb     = reg.Histogram("prob.duration")
		hRound    = reg.Histogram("round.duration")
		cRounds   = reg.Counter("rounds")
		cPosted   = reg.Counter("tasks.posted")
		cAnswered = reg.Counter("tasks.answered")
		cApprox   = reg.Counter("prob.approx.components")
	)
	var prevApprox int64

	know := ctable.NewKnowledge(d)
	know.NoInference = opt.NoInference

	// Effective distributions: the base posteriors, renormalised by what
	// the crowd has revealed so far.
	eff := make(prob.Dists, len(base))
	for v, dist := range base {
		eff[v] = dist
	}
	ev := &prob.Evaluator{Dists: eff, Opt: prob.Options{
		ApproxThreshold: opt.ApproxThreshold,
		LegacyEngine:    opt.LegacyProb,
	}}
	// core is the single writer that owns the evaluator; it hands the
	// recorder down so prob's sequential dispatch points (ProbAll,
	// PlanSweeps) can trace their deterministic sizes.
	ev.Obs = rec

	result := &Result{}
	remaining := opt.Budget
	mu := (opt.Budget + opt.Latency - 1) / opt.Latency // ⌈B/L⌉ tasks per round

	// Satisfaction probabilities are cached across rounds and recomputed
	// only for conditions that mention a variable an answer touched: a
	// 20-task round changes at most 40 variables, so most conditions keep
	// their probability. The initial fan-out is the framework's single
	// biggest model-counting bill, so it runs on the worker pool; the
	// merge below walks the undecided list in index order, keeping the
	// map contents identical to the sequential build.
	undecided := ct.Undecided()
	conds := make([]*ctable.Condition, len(undecided))
	for i, o := range undecided {
		conds[i] = ct.Conds[o]
	}
	rec.Emit(obs.Event{Kind: obs.KindModel, N: len(ct.Conds), M: len(undecided)})
	//lint:ignore determinism timing observability only: ProbTime reports wall-clock and never feeds a decision
	probStart := time.Now()
	initial := ev.ProbAll(conds, opt.Workers)
	initialDur := time.Since(probStart)
	result.ProbTime += initialDur
	hProb.Observe(initialDur)
	probs := make(map[int]float64, len(undecided))
	varToObjs := map[ctable.Var][]int{}
	for i, o := range undecided {
		probs[o] = initial[i]
		for _, v := range ct.Conds[o].Vars() {
			varToObjs[v] = append(varToObjs[v], o)
		}
	}

	// Per-round scratch, hoisted out of the loop and cleared in place each
	// round instead of reallocated — the round count times the map sizes
	// adds up at paper scale.
	touched := map[ctable.Var]bool{}
	distChanged := map[ctable.Var]bool{}
	seen := map[int]bool{}
	var stale []int
	var staleConds []*ctable.Condition

	// The absorption path is shared with the streaming crowd loop:
	// main-round answers and re-ask majorities both fold into the
	// knowledge through it, marking the touched variables and
	// renormalising the narrowed distributions.
	ab := &Absorption{Know: know, Base: base, Eff: eff, Touched: touched, DistChanged: distChanged}
	absorb := ab.Absorb

	// pendingDropped tracks fault-dropped tasks across rounds: an expression
	// goes in when its answer is lost, comes out when a later answer for it
	// arrives, and anything still undecided when the budget runs out marks
	// the result Degraded (the crowd work the faults cost us).
	pendingDropped := map[ctable.Expr]bool{}

	round := 0
	for remaining > 0 {
		if len(probs) == 0 {
			break // every condition decided
		}

		round++
		rec.SetRound(round)
		var roundStart time.Time
		if hRound != nil {
			//lint:ignore determinism timing observability only: the round-duration histogram reports wall-clock and never feeds a decision
			roundStart = time.Now()
		}

		k := mu
		if remaining < k {
			k = remaining
		}
		rec.Emit(obs.Event{Kind: obs.KindRoundStart, N: k, M: remaining})
		//lint:ignore determinism timing observability only: SelectTime reports wall-clock and never feeds a decision
		selectStart := time.Now()
		tasks := selectBatch(opt, ct, ev, probs, k)
		selectDur := time.Since(selectStart)
		result.SelectTime += selectDur
		hSelect.Observe(selectDur)
		if len(tasks) == 0 {
			break // nothing conflict-free left to ask
		}
		batchCost := 0
		for _, t := range tasks {
			batchCost += taskCost(opt, t)
		}
		if rec.On() {
			for _, t := range tasks {
				rec.Emit(obs.Event{Kind: obs.KindTaskPost, Task: t.Expr.String(), N: taskCost(opt, t)})
			}
		}

		// Post the round, retrying outages with capped exponential backoff.
		// Whatever arrived before a terminal failure is still absorbed; the
		// run then degrades instead of erroring (best-effort semantics).
		answers, postErr := postWithRetry(platform, tasks, opt, result)
		result.TasksPosted += len(tasks)
		result.TasksAnswered += len(answers)
		cPosted.Add(int64(len(tasks)))
		cAnswered.Add(int64(len(answers)))
		if postErr == nil {
			result.Rounds++
			cRounds.Add(1)
		}

		clear(touched)
		clear(distChanged)
		var conflicted []crowd.Task
		var conflictSeen map[ctable.Expr]bool
		for _, a := range answers {
			delete(pendingDropped, a.Task.Expr)
			if rec.On() {
				rec.Emit(obs.Event{Kind: obs.KindTaskAnswer, Task: a.Task.Expr.String(), Rel: a.Rel.String()})
			}
			if err := absorb(a.Task.Expr, a.Rel); err != nil {
				if errors.Is(err, ctable.ErrConflict) {
					result.ConflictingAnswers++
					if rec.On() {
						rec.Emit(obs.Event{Kind: obs.KindTaskConflict, Task: a.Task.Expr.String(), Rel: a.Rel.String()})
					}
					if opt.ReaskConflicts > 0 && !conflictSeen[a.Task.Expr] {
						if conflictSeen == nil {
							conflictSeen = map[ctable.Expr]bool{}
						}
						conflictSeen[a.Task.Expr] = true
						conflicted = append(conflicted, a.Task)
					}
					continue
				}
				return nil, err
			}
		}

		// Budget accounting. Charge-on-answer (the default) pays for
		// delivered answers only — a dropped task costs nothing and its
		// budget stays available for re-posting; ChargeOnPost pays for the
		// listing. Either way the round consumes at least the μ allowance
		// of the latency model (Algorithm 4 line 8: the budget shrinks by
		// at least μ per round even when conflicts leave the batch short,
		// which bounds the number of rounds by the latency constraint L;
		// with variable task prices the round is charged its actual
		// accumulated cost when that exceeds the allowance).
		answeredCost := 0
		answeredExpr := make(map[ctable.Expr]bool, len(answers))
		for _, a := range answers {
			answeredCost += taskCost(opt, a.Task)
			answeredExpr[a.Task.Expr] = true
		}
		charged := answeredCost
		if opt.ChargeOnPost {
			charged = batchCost
		}

		// Re-ask conflicting tasks (within the same logical round): k
		// copies re-posted, the strict majority of whatever comes back
		// absorbed in place of the discarded answer. Re-ask posts share
		// the platform's fault model but are not retried themselves.
		if postErr == nil && opt.ReaskConflicts > 0 {
			for _, t := range conflicted {
				if remaining-charged <= 0 {
					break // no budget left to re-ask with
				}
				copies := make([]crowd.Task, opt.ReaskConflicts)
				for i := range copies {
					copies[i] = t
				}
				if rec.On() {
					rec.Emit(obs.Event{Kind: obs.KindTaskReask, Task: t.Expr.String(), N: len(copies)})
				}
				reAnswers, err := platform.Post(copies)
				result.TasksReasked += len(copies)
				if err != nil {
					result.FailedRounds++
				}
				if opt.ChargeOnPost {
					charged += len(copies) * taskCost(opt, t)
				} else {
					charged += len(reAnswers) * taskCost(opt, t)
				}
				maj, ok := majorityRel(reAnswers)
				if !ok {
					continue // nothing arrived, or no strict majority
				}
				if err := absorb(t.Expr, maj); err != nil {
					if errors.Is(err, ctable.ErrConflict) {
						result.ConflictingAnswers++
						continue
					}
					return nil, err
				}
				result.ConflictsResolved++
				if rec.On() {
					rec.Emit(obs.Event{Kind: obs.KindConflictResolved, Task: t.Expr.String(), Rel: maj.String()})
				}
			}
		}

		result.BudgetSpent += charged
		charge := charged
		if charge < mu {
			charge = mu
		}
		remaining -= charge
		if remaining < 0 {
			remaining = 0
		}

		// Unanswered tasks: count the drop, and re-queue whatever this
		// round's absorbed answers did not incidentally decide — their
		// conditions still hold the expressions, so later rounds may
		// select them again.
		for _, t := range tasks {
			if answeredExpr[t.Expr] {
				continue
			}
			result.TasksDropped++
			if rec.On() {
				rec.Emit(obs.Event{Kind: obs.KindTaskDrop, Task: t.Expr.String()})
			}
			if _, decided := know.Eval(t.Expr); !decided {
				result.TasksRequeued++
				pendingDropped[t.Expr] = true
				if rec.On() {
					rec.Emit(obs.Event{Kind: obs.KindTaskRequeue, Task: t.Expr.String()})
				}
			}
		}

		// Re-simplify exactly the conditions that mention a touched
		// variable, and recompute Pr only where the condition actually
		// changed or a referenced distribution did. Simplification and
		// the eff/Knowledge writes above are single-threaded; only the
		// independent Pr recomputations fan out, and the pool join inside
		// ProbAll publishes this round's mutations to every worker before
		// any solver reads them (the Evaluator's single-writer contract).
		clear(seen)
		stale = stale[:0]
		for v := range touched {
			for _, o := range varToObjs[v] {
				if seen[o] {
					continue
				}
				seen[o] = true
				if _, tracked := probs[o]; !tracked {
					continue
				}
				cond := ct.Conds[o]
				before := cond.NumExprs()
				cond.Simplify(know)
				if _, decided := cond.Decided(); decided {
					delete(probs, o)
					continue
				}
				recompute := cond.NumExprs() != before
				if !recompute && len(distChanged) > 0 {
					for _, cv := range cond.Vars() {
						if distChanged[cv] {
							recompute = true
							break
						}
					}
				}
				if recompute {
					stale = append(stale, o)
				}
			}
		}
		// touched is a map, so the gather order above is nondeterministic;
		// sorting fixes the fan-out schedule (the values themselves are
		// order-independent — one object, one worker, one write).
		sort.Ints(stale)
		staleConds = staleConds[:0]
		for _, o := range stale {
			staleConds = append(staleConds, ct.Conds[o])
		}
		//lint:ignore determinism timing observability only: ProbTime reports wall-clock and never feeds a decision
		probStart = time.Now()
		for i, p := range ev.ProbAll(staleConds, opt.Workers) {
			probs[stale[i]] = p
		}
		roundProbDur := time.Since(probStart)
		result.ProbTime += roundProbDur
		hProb.Observe(roundProbDur)

		// Close the round on both channels: the deterministic charge and
		// undecided count to the trace, the approx-fallback delta and
		// wall time to the registry.
		rec.Emit(obs.Event{Kind: obs.KindRoundEnd, N: charged, M: len(probs)})
		if reg != nil {
			n := ev.ApproxComponents()
			cApprox.Add(n - prevApprox)
			prevApprox = n
		}
		if hRound != nil {
			hRound.Observe(time.Since(roundStart))
		}

		if postErr != nil {
			// Retries exhausted mid-phase: keep everything absorbed so far
			// and return the best-effort probabilistic skyline instead of
			// an error or a hang.
			result.Degraded = true
			result.DegradedReason = fmt.Sprintf(
				"crowd round failed after %d retries: %v", opt.MaxRetries, postErr)
			break
		}
		if opt.OnRound != nil {
			opt.OnRound(result.Rounds, len(tasks), len(probs))
		}
	}

	// Budget gone while fault-dropped tasks were still unrecovered and the
	// result still uncertain: the faults consumed crowd work the query
	// needed. Flag it — the answer set below is still the exact inference
	// over everything that did arrive.
	if !result.Degraded && len(probs) > 0 {
		unrecovered := 0
		for e := range pendingDropped {
			if _, decided := know.Eval(e); !decided {
				unrecovered++
			}
		}
		if unrecovered > 0 {
			result.Degraded = true
			result.DegradedReason = fmt.Sprintf(
				"budget exhausted with %d fault-dropped tasks unrecovered", unrecovered)
		}
	}
	if result.Degraded {
		rec.Emit(obs.Event{Kind: obs.KindDegrade, Note: result.DegradedReason})
	}

	// Final inference: decided-true objects plus undecided ones whose
	// satisfaction probability exceeds 0.5 (§7). The cached probabilities
	// are current — every absorbed answer invalidated its conditions.
	result.Probs = map[int]float64{}
	answers := ct.ResultSet()
	for o, p := range probs {
		result.Probs[o] = p
		if p > 0.5 {
			answers = append(answers, o)
		}
	}
	sort.Ints(answers)
	result.Answers = answers
	result.CTable = ct
	result.ApproxComponents = ev.ApproxComponents()
	if reg != nil {
		cApprox.Add(result.ApproxComponents - prevApprox)
	}
	rec.Emit(obs.Event{Kind: obs.KindRunEnd, N: result.TasksPosted, M: result.Rounds})
	return result, nil
}

// postWithRetry posts one round's batch, retrying round-level failures up
// to Options.MaxRetries with capped exponential backoff (base·2^attempt,
// capped at 32·base). Answers that arrived before a failure are kept and
// only the still-unanswered tasks are re-posted — a retry never asks the
// crowd the same question twice. It returns everything that arrived; the
// error is non-nil only when retries are exhausted with tasks still
// unanswered.
func postWithRetry(platform crowd.Platform, tasks []crowd.Task, opt Options, result *Result) ([]crowd.Answer, error) {
	pending := tasks
	var got []crowd.Answer
	for attempt := 0; ; attempt++ {
		answers, err := platform.Post(pending)
		got = append(got, answers...)
		if err == nil {
			return got, nil
		}
		result.FailedRounds++
		if len(answers) > 0 {
			answered := make(map[ctable.Expr]bool, len(answers))
			for _, a := range answers {
				answered[a.Task.Expr] = true
			}
			var rest []crowd.Task
			for _, t := range pending {
				if !answered[t.Expr] {
					rest = append(rest, t)
				}
			}
			pending = rest
			if len(pending) == 0 {
				return got, nil
			}
		}
		if attempt >= opt.MaxRetries {
			return got, err
		}
		result.RoundRetries++
		if opt.Trace.On() {
			opt.Trace.Emit(obs.Event{Kind: obs.KindRoundRetry, N: attempt, Note: err.Error()})
		}
		if opt.RetryBackoff > 0 {
			shift := attempt
			if shift > 5 {
				shift = 5 // cap the delay at 32× the base
			}
			if opt.Trace.On() {
				// The configured delay, not the measured one — the event
				// stays deterministic; the measured sleep is in
				// Result.BackoffTime.
				opt.Trace.Emit(obs.Event{Kind: obs.KindBackoff, N: attempt, Note: (opt.RetryBackoff << uint(shift)).String()})
			}
			start := time.Now() //lint:ignore determinism retry backoff is wall-clock by design; BackoffTime is observability-only
			time.Sleep(opt.RetryBackoff << uint(shift))
			result.BackoffTime += time.Since(start)
		}
	}
}

// majorityRel aggregates re-asked answers: the uniquely most-voted
// relation among the delivered votes, ok=false when nothing arrived or
// the top vote is tied (a tie is no better evidence than the conflict it
// is meant to settle).
func majorityRel(answers []crowd.Answer) (ctable.Rel, bool) {
	if len(answers) == 0 {
		return 0, false
	}
	counts := [3]int{}
	for _, a := range answers {
		counts[a.Rel]++
	}
	best, tie := ctable.LT, false
	for _, r := range []ctable.Rel{ctable.EQ, ctable.GT} {
		if counts[r] > counts[best] {
			best, tie = r, false
		} else if counts[r] == counts[best] {
			tie = true
		}
	}
	return best, !tie
}
