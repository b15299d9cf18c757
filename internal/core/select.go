package core

import (
	"sort"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// selectBatch implements one iteration of the two-step task selection
// (§6.2) over a batch c-table; see SelectTasks for the mechanics.
func selectBatch(opt Options, ct *ctable.CTable, ev *prob.Evaluator, probs map[int]float64, k int) []crowd.Task {
	return SelectTasks(opt, ct.Undecided(), func(o int) *ctable.Condition { return ct.Conds[o] }, ev, probs, k, nil)
}

// SelectTasks implements one iteration of the two-step task selection
// (§6.2): rank the candidate objects by the entropy of their current
// Pr(φ), then pick one expression per object according to the strategy,
// keeping the batch conflict-free (no two tasks share a variable,
// §6.1). It returns at most k tasks; objects beyond the top-k are
// consulted only when higher-entropy objects cannot contribute a
// conflict-free task.
//
// objs lists the candidate objects (the undecided ones) in a
// deterministic order and cond supplies each one's live condition; the
// split from the batch CTable lets the streaming crowd loop select over
// its window without materialising one. busy, when non-nil, pre-seeds
// the conflict set — the streaming loop passes the variables of its
// in-flight tasks so a question is never posted twice concurrently.
// Only opt's selection knobs are consulted (Strategy, M, Workers, Rng,
// TaskCost, Trace); opt.Rng must be non-nil.
func SelectTasks(opt Options, objs []int, cond func(int) *ctable.Condition, ev *prob.Evaluator, probs map[int]float64, k int, busy map[ctable.Var]bool) []crowd.Task {
	type candidate struct {
		obj int
		h   float64
	}
	// Entropy scoring fans out across the pool (concurrent map reads of
	// probs are safe — nothing writes during selection); candidates are
	// then collected sequentially in index order, exactly as before.
	hs := make([]float64, len(objs))
	parallel.For(opt.Workers, len(objs), func(_, i int) {
		hs[i] = Entropy(probs[objs[i]])
	})
	var cands []candidate
	for i, o := range objs {
		if cond(o).NumExprs() == 0 {
			continue
		}
		cands = append(cands, candidate{obj: o, h: hs[i]})
	}
	if len(cands) == 0 || k <= 0 {
		return nil
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].h > cands[b].h })

	// Expression frequencies across the conditions of the chosen top-k
	// objects (the FBS ranking key and the HHS visiting order).
	top := cands
	if len(top) > k {
		top = top[:k]
	}
	freq := map[ctable.Expr]int{}
	for _, c := range top {
		for _, cl := range cond(c.obj).Clauses {
			for _, e := range cl {
				freq[e]++
			}
		}
	}
	if opt.Trace.On() {
		// The entropy ranking is deterministic: scores merge by index and
		// the stable sort fixes tie order, so top is identical at any
		// worker count.
		for _, c := range top {
			opt.Trace.Emit(obs.Event{Kind: obs.KindEntropyTopK, Obj: c.obj, P: c.h})
		}
	}

	used := make(map[ctable.Var]bool, len(busy))
	for v := range busy {
		used[v] = true
	}
	var tasks []crowd.Task
	var varBuf []ctable.Var
	spent := 0
	for _, c := range cands {
		if spent >= k {
			break
		}
		e, ok := pickExpr(opt, ev, cond(c.obj), probs[c.obj], freq, used)
		if !ok {
			continue // every expression conflicts with this batch
		}
		if opt.Trace.On() {
			opt.Trace.Emit(obs.Event{Kind: obs.KindStrategyPick, Obj: c.obj, Task: e.String()})
		}
		task := crowd.Task{Expr: e}
		cost := taskCost(opt, task)
		// A task pricier than the remaining allowance still ships when it
		// is the round's first — otherwise one expensive task could
		// starve the query forever.
		if spent > 0 && spent+cost > k {
			continue
		}
		tasks = append(tasks, task)
		spent += cost
		varBuf = e.Vars(varBuf[:0])
		for _, v := range varBuf {
			used[v] = true
		}
	}
	return tasks
}

// taskCost prices a task: 1 unit unless Options.TaskCost says otherwise.
// Non-positive prices are a caller bug and panic loudly rather than
// silently corrupting the budget ledger.
func taskCost(opt Options, t crowd.Task) int {
	if opt.TaskCost == nil {
		return 1
	}
	c := opt.TaskCost(t)
	if c < 1 {
		panic("core: TaskCost returned a non-positive price")
	}
	return c
}

// pickExpr chooses one expression of the condition per the strategy,
// avoiding variables already used in the batch. ok is false when no
// conflict-free expression exists.
func pickExpr(opt Options, ev *prob.Evaluator, cond *ctable.Condition, pPhi float64, freq map[ctable.Expr]int, used map[ctable.Var]bool) (ctable.Expr, bool) {
	avail := availableExprs(cond, used)
	if len(avail) == 0 {
		return ctable.Expr{}, false
	}

	// Random permutation first, then a stable sort by frequency: ties are
	// broken randomly, as the paper prescribes, but reproducibly via the
	// seeded Rng.
	opt.Rng.Shuffle(len(avail), func(i, j int) { avail[i], avail[j] = avail[j], avail[i] })
	sort.SliceStable(avail, func(a, b int) bool { return freq[avail[a]] > freq[avail[b]] })

	switch opt.Strategy {
	case FBS:
		return avail[0], true

	case UBS:
		// UBS scores every available expression anyway, so the utilities
		// fan out wholesale over a component scan of the condition —
		// each candidate re-solves only the component holding its
		// variables, with the rest of the formula contributing the scan's
		// precomputed product. The scores agree with Utility's
		// full-formula probes within 1e-12 (they factor the same product
		// in a different order). The argmax scan below visits the scores
		// in the same order as the sequential loop did.
		gains := UtilitiesScan(ev.NewCondScan(cond, pPhi), avail, opt.Workers)
		best, bestG := avail[0], -1.0
		for i, e := range avail {
			if gains[i] > bestG {
				best, bestG = e, gains[i]
			}
		}
		return best, true

	case HHS:
		// Algorithm 4 lines 10-22: visit in frequency order, early-stop
		// after m consecutive expressions without improvement, scoring
		// through the same per-condition component scan as UBS. With more
		// than one worker the utilities are precomputed speculatively —
		// scores past the stop point are wasted work, never a changed
		// decision, because the scan below applies the identical
		// early-stop rule to identical values. One worker keeps the lazy
		// sequential scan and today's exact work profile.
		scan := ev.NewCondScan(cond, pPhi)
		var gain func(i int) float64
		if opt.Workers > 1 {
			gains := UtilitiesScan(scan, avail, opt.Workers)
			gain = func(i int) float64 { return gains[i] }
		} else {
			scan.PlanSweeps(avail)
			gain = func(i int) float64 { return UtilityScan(scan, avail[i]) }
		}
		best, bestG := avail[0], 0.0
		c := 0
		for i, e := range avail {
			g := gain(i)
			if g > bestG {
				best, bestG = e, g
				c = 0
				continue
			}
			c++
			if c == opt.M {
				break
			}
		}
		return best, true

	default:
		panic("core: unknown strategy")
	}
}

// availableExprs returns the condition's distinct expressions whose
// variables are all unused in the current batch.
func availableExprs(cond *ctable.Condition, used map[ctable.Var]bool) []ctable.Expr {
	var out []ctable.Expr
	var buf []ctable.Var
	for _, e := range cond.Exprs() {
		conflict := false
		buf = e.Vars(buf[:0])
		for _, v := range buf {
			if used[v] {
				conflict = true
				break
			}
		}
		if !conflict {
			out = append(out, e)
		}
	}
	return out
}
