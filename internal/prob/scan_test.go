package prob

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
)

// randClauses builds a random CNF over nVars fresh variables, registering
// their distributions in dists. Mirrors the solver stress generator.
func randClauses(rng *rand.Rand, nVars int, dists Dists) [][]ctable.Expr {
	vars := make([]ctable.Var, nVars)
	for i := range vars {
		vars[i] = v(1000+len(dists)+i, rng.Intn(2))
		dists[vars[i]] = randomDist(rng, 2+rng.Intn(7))
	}
	var clauses [][]ctable.Expr
	for c := 0; c < 3+rng.Intn(8); c++ {
		var clause []ctable.Expr
		for k := 0; k < 1+rng.Intn(3); k++ {
			x := vars[rng.Intn(nVars)]
			switch rng.Intn(3) {
			case 0:
				clause = append(clause, ctable.LTConst(x, rng.Intn(len(dists[x])+1)))
			case 1:
				clause = append(clause, ctable.GTConst(x, rng.Intn(len(dists[x]))))
			default:
				y := vars[rng.Intn(nVars)]
				if y != x {
					clause = append(clause, ctable.GTVar(x, y))
				} else {
					clause = append(clause, ctable.GTConst(x, 0))
				}
			}
		}
		clauses = append(clauses, clause)
	}
	return clauses
}

// TestCondScanMatchesCondProbsWith checks that the component-scan probe
// path agrees with the full-formula probe path within 1e-12 for every
// expression of the condition, sweeps planned or not. The conditionals pTrue
// and pFalse are compared through the stable joints Pr(φ∧e) = pe·pTrue
// and Pr(φ∧¬e) = (1−pe)·pFalse: when pe sits within an ulp of 0 or 1 the
// corresponding ratio divides float noise by float noise, and both paths
// return a legitimate-but-arbitrary clamp — the utility formulas multiply
// the same weight straight back, so the joints are what must agree.
func TestCondScanMatchesCondProbsWith(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		dists := Dists{}
		clauses := randClauses(rng, 6+rng.Intn(8), dists)
		cond := ctable.FromClauses(clauses)

		ev := NewEvaluator(dists)
		pPhi := ev.Prob(cond.Clone())
		scan := ev.NewCondScan(cond, pPhi)
		planned := ev.NewCondScan(cond, pPhi)
		planned.PlanSweeps(cond.Exprs())
		for _, cl := range cond.Clauses {
			for _, e := range cl {
				for _, cs := range []*CondScan{scan, planned} {
					ae, aPhi, aT, aF := cs.CondProbs(e)
					be, bPhi, bT, bF := ev.CondProbsWith(cond, e, pPhi)
					drifts := []float64{
						ae - be, aPhi - bPhi,
						ae*aT - be*bT, (1-ae)*aF - (1-be)*bF,
					}
					for i, d := range drifts {
						if math.Abs(d) > 1e-12 {
							t.Fatalf("trial %d (planned=%v): scan vs full for %v: quantity %d drifts %v",
								trial, cs == planned, e, i, d)
						}
					}
				}
			}
		}
	}
}

// TestStaleEntryServedNever checks that an evaluator reused after its
// distributions were renormalised — as a crowd answer does between
// fan-outs — reads the new distributions: nothing solved under the old
// ones, pooled solver scratch included, leaks into the new result.
func TestStaleEntryServedNever(t *testing.T) {
	x1, y1 := v(0, 0), v(1, 0)
	x2, y2 := v(2, 0), v(3, 0)
	// Two components, each with a variable in two clauses, so the direct
	// rule cannot decide either and both are branched.
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.GTConst(x1, 1)},
		{ctable.GTVar(x1, y1)},
		{ctable.GTConst(x2, 2)},
		{ctable.GTVar(x2, y2)},
	})
	dists := Dists{x1: uniform(5), y1: uniform(5), x2: uniform(6), y2: uniform(6)}
	ev := NewEvaluator(dists)

	before := ev.Prob(cond.Clone())
	dists[x1] = []float64{0, 0, 0, 0.5, 0.5}
	dists[x2] = []float64{0, 0, 0, 0, 0.5, 0.5}
	after := ev.Prob(cond.Clone())
	if after == before {
		t.Fatalf("Prob unchanged (%v) after renormalising both components", after)
	}
	if want := NewEvaluator(dists).Prob(cond.Clone()); after != want {
		t.Fatalf("post-renormalisation Prob = %v, want %v", after, want)
	}
}
