package core

import (
	"math"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// Entropy returns the Shannon entropy of an object's answer-membership
// uncertainty (Eq. 3): H = −(p·log₂p + (1−p)·log₂(1−p)), with the usual
// convention 0·log 0 = 0.
func Entropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -(p*math.Log2(p) + (1-p)*math.Log2(1-p))
}

// Utility returns the marginal utility G(o,e) of crowdsourcing expression
// e from the condition (Definition 6, Eq. 4-5): the expected entropy
// reduction of the object's membership after learning e's truth value.
func Utility(ev *prob.Evaluator, cond *ctable.Condition, e ctable.Expr) float64 {
	pPhi := ev.Prob(cond)
	pe, _, pTrue, pFalse := ev.CondProbsWith(cond, e, pPhi)
	expected := pe*Entropy(pTrue) + (1-pe)*Entropy(pFalse)
	return Entropy(pPhi) - expected
}

// UtilityScan is Utility through a component scan: the condition's
// untouched components contribute a precomputed product instead of being
// re-solved for every candidate. The two factor the same product in a
// different order, so they agree within 1e-12. The scan carries its own
// Pr(φ).
func UtilityScan(scan *prob.CondScan, e ctable.Expr) float64 {
	pe, pPhi, pTrue, pFalse := scan.CondProbs(e)
	expected := pe*Entropy(pTrue) + (1-pe)*Entropy(pFalse)
	return Entropy(pPhi) - expected
}

// UtilitiesScan scores every expression of a candidate set through one
// component scan, fanning the candidates across at most workers
// goroutines; out[i] pairs with exprs[i] and is computed wholly by one
// worker, so the vector is bit-identical at any worker count. Scoring the
// whole candidate set at once is what lets the scan plan marginal
// sweeps — one shared model-counting pass per heavily-probed component
// instead of one run per candidate. PlanSweeps runs before the fan-out,
// so the scan is read-only while workers probe it.
func UtilitiesScan(scan *prob.CondScan, exprs []ctable.Expr, workers int) []float64 {
	scan.PlanSweeps(exprs)
	out := make([]float64, len(exprs))
	parallel.For(workers, len(exprs), func(_, i int) {
		out[i] = UtilityScan(scan, exprs[i])
	})
	return out
}
