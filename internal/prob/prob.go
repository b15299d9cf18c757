// Package prob computes the satisfaction probability Pr(φ(o)) of c-table
// conditions — the possibility of an object being a skyline answer (paper
// §5).
//
// The problem is weighted model counting over multi-valued variables, at
// least as hard as #SAT. Three solvers are provided:
//
//   - ADPLL (Algorithm 3): the paper's adaptive DPLL — branch on the most
//     frequent variable, and stop branching as soon as the residual
//     conjuncts are independent, where the probability follows directly
//     from the independent-conjunction rule Pr(p∧q) = Pr(p)·Pr(q) and the
//     general-disjunction rule Pr(p∨q) = 1 − Pr(¬p∧¬q). This
//     implementation generalises the independence test to connected
//     components of clauses (clauses sharing no variable are independent
//     groups), a standard #SAT device; an option disables it for the
//     ablation benchmark.
//
//   - Naive: full enumeration of every variable-value combination, the
//     brute-force comparator of Figure 3.
//
//   - MonteCarlo: a sampling estimator standing in for the paper's
//     generalised weighted ApproxCount, which §5 reports losing to ADPLL
//     on both axes.
//
// Variables carry independent discrete distributions (their Bayesian-
// network posteriors, possibly renormalised by crowd answers); following
// the paper, the ADPLL recursion multiplies the branch weights p(v_a)
// independently.
package prob

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
)

// Dists maps every variable appearing in the conditions under evaluation
// to its probability distribution over the attribute's codes. Slices must
// be normalised (they are renormalised posteriors when crowd answers have
// narrowed a variable's interval: impossible values carry probability 0).
type Dists map[ctable.Var][]float64

// Options tunes the ADPLL solver; the zero value is the recommended
// configuration.
type Options struct {
	// NoComponents disables connected-component decomposition, leaving
	// only the paper's literal "all conjuncts pairwise independent" test.
	// Used by the ablation benchmark.
	NoComponents bool
	// BranchFirstVar branches on the first variable encountered instead
	// of the most frequent one. Used by the ablation benchmark.
	BranchFirstVar bool
	// LegacyEngine solves branched components with the original
	// clause-rewriting recursion instead of the compiled bitset
	// clause-state engine (state.go). The two engines are bit-identical;
	// the flag exists for the equivalence tests that prove it and for the
	// benchmark that measures the speedup within one process.
	LegacyEngine bool
	// ApproxThreshold, when > 0, caps the exact solver: a connected
	// component with more than ApproxThreshold distinct variables is
	// estimated by the generalised weighted ApproxCount sampler instead
	// of being counted exactly, at DefaultApproxSamples effort. The
	// estimator is seeded from the component's canonical fingerprint, so
	// both the fallback decision and the estimate are pure functions of
	// the component — identical at any worker count and schedule. See
	// Evaluator.ApproxComponents for the documented error bound. Zero
	// (the default) means always exact. The threshold is per component,
	// so it has no effect under NoComponents.
	ApproxThreshold int
}

// DefaultApproxSamples is the samples-per-level effort of the
// ApproxThreshold fallback.
const DefaultApproxSamples = 200

// Evaluator computes condition probabilities against a fixed set of
// variable distributions.
//
// Concurrency: the evaluator is safe for concurrent use by multiple
// goroutines provided none of them mutates Dists (or the distribution
// slices it holds) while evaluations are in flight — every method only
// reads the map, and solver scratch is per-call (pooled, never shared
// between in-flight evaluations). The framework is single-writer: crowd
// answers renormalise distributions strictly between parallel fan-outs,
// and the pool join inside ProbAll / parallel.For publishes those writes
// to the workers of the next fan-out (a happens-before edge). Callers
// adding their own concurrency must preserve that discipline. Nothing is
// memoized across evaluations, so a Dists write needs no follow-up: the
// next evaluation reads the new distribution.
type Evaluator struct {
	Dists Dists
	Opt   Options
	// Obs, when non-nil, receives the evaluator's trace events (fan-out
	// and sweep-plan sizes). It is set by the single writer that owns the
	// evaluator, and events are emitted only from sequential entry points
	// (ProbAll's dispatch, CondScan.PlanSweeps) — never from inside a
	// fan-out — so the trace stays deterministic at any worker count.
	Obs *obs.Recorder
	// approxN counts connected components resolved by the ApproxThreshold
	// fallback. Atomic because evaluations run inside parallel fan-outs.
	approxN atomic.Int64
}

// ApproxComponents returns how many connected-component solves fell back
// to the approximate estimator (Options.ApproxThreshold) since the
// evaluator was created. Both the count and the estimates are
// deterministic (fingerprint-seeded, one solve per component
// occurrence); the count is still an observability figure, not a traced
// quantity.
//
// Error bound: the estimator is only asymptotically unbiased and carries
// no worst-case guarantee. Empirically, at the DefaultApproxSamples
// effort, the absolute error on the seeded benchmark components stays
// within 0.05 of the exact probability (asserted by the approx fallback
// tests); treat crossings of the 0.5 answer threshold by less than that
// margin as undecided when ApproxThreshold is enabled.
func (ev *Evaluator) ApproxComponents() int64 { return ev.approxN.Load() }

// NewEvaluator returns an evaluator over the given distributions with
// default options.
func NewEvaluator(dists Dists) *Evaluator { return &Evaluator{Dists: dists} }

func (ev *Evaluator) dist(v ctable.Var) []float64 {
	d, ok := ev.Dists[v]
	if !ok {
		panic(fmt.Sprintf("prob: no distribution for %v", v))
	}
	return d
}

// ExprProb returns Pr(e) under the variable distributions: the mass of
// values satisfying the inequality (independent variables for the
// var-vs-var case).
func (ev *Evaluator) ExprProb(e ctable.Expr) float64 {
	switch e.Kind {
	case ctable.VarLTConst:
		d := ev.dist(e.X)
		p := 0.0
		for v := 0; v < len(d) && v < e.C; v++ {
			p += d[v]
		}
		return p
	case ctable.VarGTConst:
		d := ev.dist(e.X)
		p := 0.0
		// Hoist the v >= 0 clamp out of the loop: a negative constant
		// just starts the scan at 0.
		start := e.C + 1
		if start < 0 {
			start = 0
		}
		for v := start; v < len(d); v++ {
			p += d[v]
		}
		return p
	case ctable.VarGTVar:
		dx, dy := ev.dist(e.X), ev.dist(e.Y)
		// Pr(X > Y) = Σ_a dx[a] · CDF_Y(a-1).
		p, cdf := 0.0, 0.0
		for a := 0; a < len(dx); a++ {
			if a-1 >= 0 && a-1 < len(dy) {
				cdf += dy[a-1]
			}
			p += dx[a] * cdf
		}
		return p
	default:
		panic(fmt.Sprintf("prob: unknown expression kind %d", e.Kind))
	}
}

// Prob returns Pr(φ) via the ADPLL algorithm. Decided conditions return 0
// or 1 directly.
func (ev *Evaluator) Prob(c *ctable.Condition) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	return ev.probClauses(c.Clauses)
}

// probClauses runs ADPLL over a raw clause set.
func (ev *Evaluator) probClauses(clauses [][]ctable.Expr) float64 {
	s, interned := newSolver(ev, clauses)
	p := s.adpllTop(interned)
	ev.drainApprox(s)
	s.release()
	return p
}

// drainApprox moves the solver's approximate-fallback count onto the
// evaluator's atomic counter before the solver returns to the pool.
func (ev *Evaluator) drainApprox(s *solver) {
	if s.nApprox > 0 {
		ev.approxN.Add(int64(s.nApprox))
		s.nApprox = 0
	}
}

// probGroups returns the probability of the conjunction of several clause
// groups plus an optional augmenting unit clause [*unit], without ever
// materialising a combined clause buffer (the unit clause lives in solver
// scratch). It is the engine behind CondProbsWith and the CondScan's
// partial re-solves.
func (ev *Evaluator) probGroups(groups [][][]ctable.Expr, unit *ctable.Expr) float64 {
	s, interned := newSolverGroups(ev, groups, unit)
	p := s.adpllTop(interned)
	ev.drainApprox(s)
	s.release()
	return p
}

// ProbAll computes Pr(φ) for every condition, fanning the independent
// evaluations across at most workers goroutines (<= 0 means one per CPU,
// 1 runs inline sequentially). out[i] corresponds to conds[i], so the
// merge order — and therefore every returned float — is bit-identical at
// any worker count: each condition is evaluated wholly by one worker and
// no sum is reassociated across workers.
func (ev *Evaluator) ProbAll(conds []*ctable.Condition, workers int) []float64 {
	// Emitted from the sequential dispatch, before the fan-out — the size
	// of the fan-out is deterministic even though its schedule is not.
	ev.Obs.Emit(obs.Event{Kind: obs.KindProbFanout, N: len(conds)})
	out := make([]float64, len(conds))
	parallel.For(parallel.Workers(workers), len(conds), func(_, i int) {
		out[i] = ev.Prob(conds[i])
	})
	return out
}

// Naive returns Pr(φ) by enumerating every combination of the condition's
// variables — the brute-force comparator of Figure 3, with complexity
// N^|vars|. Use StateSpace to bound the cost before calling.
func (ev *Evaluator) Naive(c *ctable.Condition) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	vars := c.Vars()
	assign := map[ctable.Var]int{}
	var rec func(i int, weight float64) float64
	rec = func(i int, weight float64) float64 {
		if i == len(vars) {
			value, decided := c.EvalAssign(assign)
			if !decided {
				panic("prob: condition undecided under full assignment")
			}
			if value {
				return weight
			}
			return 0
		}
		v := vars[i]
		total := 0.0
		for a, pa := range ev.dist(v) {
			if pa == 0 {
				continue
			}
			assign[v] = a
			total += rec(i+1, weight*pa)
		}
		delete(assign, v)
		return total
	}
	return rec(0, 1)
}

// StateSpace returns the number of variable-value combinations Naive would
// enumerate for the condition (product of domain sizes), as a float64 to
// avoid overflow.
func (ev *Evaluator) StateSpace(c *ctable.Condition) float64 {
	if _, decided := c.Decided(); decided {
		return 0
	}
	space := 1.0
	for _, v := range c.Vars() {
		space *= float64(len(ev.dist(v)))
	}
	return space
}

// MonteCarlo estimates Pr(φ) by sampling each variable from its
// distribution and reporting the fraction of satisfied draws. It stands in
// for the paper's generalised weighted ApproxCount comparator (§5).
func (ev *Evaluator) MonteCarlo(c *ctable.Condition, samples int, rng *rand.Rand) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	if samples <= 0 {
		panic(fmt.Sprintf("prob: MonteCarlo with %d samples", samples))
	}
	vars := c.Vars()
	assign := make(map[ctable.Var]int, len(vars))
	hits := 0
	for s := 0; s < samples; s++ {
		for _, v := range vars {
			assign[v] = sampleDist(rng, ev.dist(v))
		}
		if value, _ := c.EvalAssign(assign); value {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func sampleDist(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for v, p := range dist {
		acc += p
		if u < acc {
			return v
		}
	}
	return len(dist) - 1
}

// CondProbs returns the quantities the marginal-utility function (Eq. 4-5)
// needs for expression e of condition c:
//
//	pe      = Pr(e)
//	pPhi    = Pr(φ)
//	pTrue   = Pr(φ | e true)
//	pFalse  = Pr(φ | e false)
//
// computed exactly via Pr(φ∧e) with one extra ADPLL run over the condition
// augmented by the unit clause [e] (negation-free conditioning:
// Pr(φ|¬e) = (Pr(φ) − Pr(φ∧e)) / (1 − Pr(e))). Degenerate conditionals
// (Pr(e) ∈ {0,1}) return pPhi for the impossible branch.
func (ev *Evaluator) CondProbs(c *ctable.Condition, e ctable.Expr) (pe, pPhi, pTrue, pFalse float64) {
	return ev.CondProbsWith(c, e, ev.Prob(c))
}

// CondProbsWith is CondProbs with Pr(φ) supplied by the caller, saving one
// model-counting run when the same condition is probed for many
// expressions. It re-solves the whole condition per expression; UBS/HHS
// score candidates through CondScan instead, and core.Utility keeps this
// full-formula probe as the reference the scan is tested against.
func (ev *Evaluator) CondProbsWith(c *ctable.Condition, e ctable.Expr, pPhiKnown float64) (pe, pPhi, pTrue, pFalse float64) {
	pe = ev.ExprProb(e)
	pPhi = pPhiKnown

	// The unit clause rides in solver scratch (newSolverGroups), so no
	// augmented clause buffer is allocated per probe.
	pBoth := ev.probGroups([][][]ctable.Expr{c.Clauses}, &e)

	if pe > 0 {
		pTrue = clampProb(pBoth / pe)
	} else {
		pTrue = pPhi
	}
	if pe < 1 {
		pFalse = clampProb((pPhi - pBoth) / (1 - pe))
	} else {
		pFalse = pPhi
	}
	return pe, pPhi, pTrue, pFalse
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
