package core

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// TestScanUtilitiesMatchReference checks candidate scoring against the
// Eq. 4-5 reference: UtilitiesScan, at one and at four workers, must
// agree with Utility's full-formula probes within 1e-12 for every
// expression of every undecided condition (the two factor the same
// product in a different order), and the expression UBS and HHS pick
// must carry the maximum reference utility. HHS runs with M at least
// the number of expressions, so its early stop never fires.
func TestScanUtilitiesMatchReference(t *testing.T) {
	const tol = 1e-12
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		truth := dataset.GenNBA(rng, 150)
		d := truth.InjectMissing(rng, 0.15)
		base, err := Preprocess(d, Options{MarginalsOnly: true, Budget: 1, Latency: 1})
		if err != nil {
			t.Fatal(err)
		}
		ct := ctable.Build(d, ctable.BuildOptions{Alpha: 0.05})
		ev := prob.NewEvaluator(base)

		for _, o := range ct.Undecided() {
			cond := ct.Conds[o]
			exprs := cond.Exprs()
			if len(exprs) == 0 {
				continue
			}
			pPhi := ev.Prob(cond)
			ref := make([]float64, len(exprs))
			maxRef := math.Inf(-1)
			for i, e := range exprs {
				ref[i] = Utility(ev, cond, e)
				maxRef = math.Max(maxRef, ref[i])
			}

			for _, workers := range []int{1, 4} {
				got := UtilitiesScan(ev.NewCondScan(cond, pPhi), exprs, workers)
				for i, e := range exprs {
					if math.Abs(got[i]-ref[i]) > tol {
						t.Errorf("seed %d obj %d workers %d: scan utility of %v = %v, reference %v",
							seed, o, workers, e, got[i], ref[i])
					}
				}
			}

			for _, strat := range []Strategy{UBS, HHS} {
				opt, err := Options{Budget: 10, Latency: 10, Strategy: strat, M: len(exprs),
					Workers: 1, Rng: rand.New(rand.NewSource(seed))}.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				e, ok := pickExpr(opt, ev, cond, pPhi, map[ctable.Expr]int{}, map[ctable.Var]bool{})
				if !ok {
					t.Fatalf("seed %d obj %d: %v picked nothing", seed, o, strat)
				}
				if g := Utility(ev, cond, e); math.Abs(g-maxRef) > tol {
					t.Errorf("seed %d obj %d: %v picked %v with utility %v, maximum %v",
						seed, o, strat, e, g, maxRef)
				}
			}
		}
	}
}
