package prob

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/ctable"
)

// The compiled bitset clause-state engine must be indistinguishable from
// the legacy clause-rewriting recursion — not approximately: the seed
// behaviour is the oracle, and every float must match bit for bit. These
// tests run the same evaluations under both Options.LegacyEngine settings
// and compare with Float64bits.

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestStateEngineBitIdenticalRandom sweeps seeded random CNFs.
func TestStateEngineBitIdenticalRandom(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cond, dists := randomCondition(rng)
		legacy := &Evaluator{Dists: dists, Opt: Options{LegacyEngine: true}}
		state := &Evaluator{Dists: dists}
		lp, sp := legacy.Prob(cond), state.Prob(cond)
		if !sameBits(lp, sp) {
			t.Fatalf("seed %d: legacy %v != state %v (condition %s)", seed, lp, sp, cond)
		}
	}
}

// TestStateEngineBitIdenticalNBA compares whole NBA-shaped workloads:
// every undecided condition, at several worker counts.
func TestStateEngineBitIdenticalNBA(t *testing.T) {
	conds, dists := nbaConditions(250, 0.2, 0.1, 7)
	if len(conds) == 0 {
		t.Fatal("no undecided conditions generated")
	}
	legacy := &Evaluator{Dists: dists, Opt: Options{LegacyEngine: true}}
	want := legacy.ProbAll(conds, 1)
	state := &Evaluator{Dists: dists}
	for _, workers := range []int{1, 3, 8} {
		if got := state.ProbAll(conds, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: state engine differs from legacy", workers)
		}
	}
}

// TestStateEngineBitIdenticalCondProbs pins the UBS/HHS probe path: the
// unit-clause augmented re-solves of CondProbsWith and the component-scan
// probes must match the legacy engine exactly, expression by expression.
func TestStateEngineBitIdenticalCondProbs(t *testing.T) {
	conds, dists := nbaConditions(150, 0.25, 0.1, 5)
	legacy := &Evaluator{Dists: dists, Opt: Options{LegacyEngine: true}}
	state := &Evaluator{Dists: dists}
	checked := 0
	for _, c := range conds {
		pLegacy, pState := legacy.Prob(c), state.Prob(c)
		if !sameBits(pLegacy, pState) {
			t.Fatalf("Pr(φ) differs: %v vs %v", pLegacy, pState)
		}
		scan := state.NewCondScan(c, pState)
		lscan := legacy.NewCondScan(c, pLegacy)
		exprs := c.Exprs()
		// Sweeps planned on both scans: swept candidates are priced by
		// partial sums, an intentionally different (cheaper) arithmetic
		// than the unit-clause re-solve, so the comparison must hold the
		// pricing path fixed while varying the engine.
		scan.PlanSweeps(exprs)
		lscan.PlanSweeps(exprs)
		for _, e := range exprs {
			le1, _, lt1, lf1 := legacy.CondProbsWith(c, e, pLegacy)
			se1, _, st1, sf1 := state.CondProbsWith(c, e, pState)
			if !sameBits(le1, se1) || !sameBits(lt1, st1) || !sameBits(lf1, sf1) {
				t.Fatalf("CondProbsWith differs for %v: (%v %v %v) vs (%v %v %v)",
					e, le1, lt1, lf1, se1, st1, sf1)
			}
			ge, gp, gt, gf := scan.CondProbs(e)
			we, wp, wt, wf := lscan.CondProbs(e)
			if !sameBits(ge, we) || !sameBits(gp, wp) || !sameBits(gt, wt) || !sameBits(gf, wf) {
				t.Fatalf("CondScan.CondProbs differs for %v", e)
			}
			checked++
			if checked >= 400 {
				return
			}
		}
	}
}

// TestStateEngineAblationModes covers the ablation options: the
// BranchFirstVar branching rule runs through the state engine's
// first-variable path, and NoComponents (which bypasses component
// decomposition entirely) runs the state engine's whole-residual
// branching; both must match the legacy engine bit for bit.
func TestStateEngineAblationModes(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cond, dists := randomCondition(rng)
		for _, opt := range []Options{
			{BranchFirstVar: true},
			{NoComponents: true},
			{NoComponents: true, BranchFirstVar: true},
		} {
			optLegacy := opt
			optLegacy.LegacyEngine = true
			legacy := &Evaluator{Dists: dists, Opt: optLegacy}
			state := &Evaluator{Dists: dists, Opt: opt}
			lp, sp := legacy.Prob(cond), state.Prob(cond)
			if !sameBits(lp, sp) {
				t.Fatalf("seed %d opt %+v: legacy %v != state %v", seed, opt, lp, sp)
			}
		}
	}
}

// TestStateEngineDeepChain exercises deep recursion and the undo trail:
// a long var-vs-var chain forces branching depth proportional to the
// chain length, with every literal decided and revived many times.
func TestStateEngineDeepChain(t *testing.T) {
	const n = 12
	vars := make([]ctable.Var, n)
	dists := Dists{}
	rng := rand.New(rand.NewSource(3))
	for i := range vars {
		vars[i] = v(i, 0)
		dists[vars[i]] = randomDist(rng, 4)
	}
	var clauses [][]ctable.Expr
	for i := 0; i+1 < n; i++ {
		clauses = append(clauses, []ctable.Expr{ctable.GTVar(vars[i], vars[i+1])})
	}
	// A second, overlapping chain ensures shared variables across clauses.
	for i := 0; i+2 < n; i += 2 {
		clauses = append(clauses, []ctable.Expr{
			ctable.GTVar(vars[i], vars[i+2]),
			ctable.LTConst(vars[i+1], 3),
		})
	}
	cond := ctable.FromClauses(clauses)
	legacy := &Evaluator{Dists: dists, Opt: Options{LegacyEngine: true}}
	state := &Evaluator{Dists: dists}
	lp, sp := legacy.Prob(cond), state.Prob(cond)
	if !sameBits(lp, sp) {
		t.Fatalf("deep chain: legacy %v != state %v", lp, sp)
	}
	if naive := legacy.Naive(cond); math.Abs(naive-sp) > 1e-9 {
		t.Fatalf("state %v deviates from naive %v", sp, naive)
	}
}
