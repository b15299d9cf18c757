package prob

import (
	"fmt"
	"math/rand"
	"slices"

	"bayescrowd/internal/ctable"
)

// ApproxCount generalises the weighted ApproxCount model counter of Wei &
// Selman ("A New Approach to Model Counting", SAT 2005) to multi-valued
// variables with non-uniform weights — the approximate comparator the
// paper evaluates against ADPLL in §5 and reports losing on both
// efficiency and accuracy.
//
// The original algorithm estimates a model count as a telescoping product:
// sample satisfying assignments (SampleSat), estimate the marginal of one
// variable among them, fix that variable to its most frequent value,
// multiply the running estimate by the inverse marginal, and recurse on
// the simplified formula. Here the count becomes a probability mass, the
// samples are drawn from the variables' distributions restricted to the
// satisfying region by rejection-plus-local-search (the multi-valued
// stand-in for SampleSat), and the marginal estimate is weighted by the
// branch distribution.
//
// samplesPerLevel controls the per-variable sampling effort; typical
// values are 30–200. The estimator is unbiased only asymptotically and —
// as §5 observes — multi-valued variables make satisfying-sample
// generation expensive, which is exactly why ADPLL wins.
func (ev *Evaluator) ApproxCount(c *ctable.Condition, samplesPerLevel int, rng *rand.Rand) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	if samplesPerLevel <= 0 {
		panic(fmt.Sprintf("prob: ApproxCount with %d samples per level", samplesPerLevel))
	}
	s, clauses := newSolver(ev, clone2(c.Clauses))
	p := s.approxCount(clauses, samplesPerLevel, rng)
	s.release()
	return p
}

func clone2(clauses [][]ctable.Expr) [][]ctable.Expr {
	out := make([][]ctable.Expr, len(clauses))
	for i, cl := range clauses {
		out[i] = append([]ctable.Expr(nil), cl...)
	}
	return out
}

// approxComponent is the ApproxThreshold fallback of componentProb: one
// telescoping estimate over a connected component too wide for exact
// counting, seeded from the fingerprint of the canonically ordered
// component. Seeding from the fingerprint — never from a shared,
// schedule-consumed source — is what keeps the estimate a pure function
// of the component, and thus identical at any worker count.
func (s *solver) approxComponent(comp [][]cexpr) float64 {
	// FNV-1a over the canonical key.
	h := uint64(14695981039346656037)
	for _, b := range s.fingerprint(comp) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	rng := rand.New(rand.NewSource(int64(h)))
	s.nApprox++
	return s.approxCount(comp, DefaultApproxSamples, rng)
}

// approxCount runs one telescoping estimate over the solver's interned
// clauses. The assignments it fixes are reverted on return, so it can
// run mid-evaluation (the ApproxThreshold fallback) without corrupting
// sibling components.
func (s *solver) approxCount(clauses [][]cexpr, samplesPerLevel int, rng *rand.Rand) float64 {
	var fixed []int32
	defer func() {
		for _, v := range fixed {
			s.assign[v] = -1
		}
	}()
	estimate := 1.0
	for {
		residual, value, decided := s.simplify(clauses)
		if decided {
			if value {
				return estimate
			}
			return 0
		}
		// Exact finish when the residual is independent — the cheap exit
		// ADPLL also uses; without it the estimator would sample forever
		// on already-trivial formulas.
		if p, ok := s.directProb(residual); ok {
			return estimate * p
		}

		v := s.pickVar(residual)

		// Estimate P(v = a | φ) from satisfying samples.
		counts := make([]float64, len(s.dists[v]))
		got := 0
		for i := 0; i < samplesPerLevel; i++ {
			assignment, ok := s.sampleSat(residual, rng)
			if !ok {
				continue
			}
			counts[assignment[v]]++
			got++
		}
		if got == 0 {
			// Could not find satisfying samples: treat the region as
			// (nearly) unsatisfiable, matching ApproxCount's behaviour of
			// giving up with a zero estimate.
			return 0
		}

		// Fix v to its most frequent satisfying value and discount the
		// estimate by that value's conditional share.
		best, bestCount := 0, counts[0]
		for a, cnt := range counts[1:] {
			if cnt > bestCount {
				best, bestCount = a+1, cnt
			}
		}
		share := bestCount / float64(got)
		// Weight by the prior of the fixed value: Pr(φ) =
		// Pr(φ ∧ v=a) / P(v=a | φ) and Pr(φ ∧ v=a) = p(a)·Pr(φ | v=a).
		estimate *= s.dists[v][best] / share
		s.assign[v] = int32(best)
		fixed = append(fixed, v)
		clauses = residual
	}
}

// sampleSat draws one satisfying assignment of the residual clauses (over
// the unassigned variables) by sampling from the variable distributions
// and repairing violated clauses with a bounded greedy local search —
// the multi-valued analogue of SampleSat's WalkSat phase. ok is false if
// no satisfying assignment was reached within the repair budget. The
// returned assignment is dense solver scratch indexed by var id, valid
// until the next sampleSat call.
func (s *solver) sampleSat(clauses [][]cexpr, rng *rand.Rand) ([]int32, bool) {
	// Collect the variables of the residual in deterministic (sorted)
	// order: drawing the initial assignment in discovery order would tie
	// the seeded rng's consumption to clause layout rather than variable
	// identity. The seen-set rides the solver's epoch-stamped scratch —
	// this runs under the hot loop's no-map-allocation discipline.
	s.epoch++
	varList := s.satVars[:0]
	for _, cl := range clauses {
		for _, e := range cl {
			if s.seenEp[e.x] != s.epoch {
				s.seenEp[e.x] = s.epoch
				varList = append(varList, e.x)
			}
			if e.y >= 0 && s.seenEp[e.y] != s.epoch {
				s.seenEp[e.y] = s.epoch
				varList = append(varList, e.y)
			}
		}
	}
	s.satVars = varList
	slices.Sort(varList)
	assignment := s.satAssign
	for _, v := range varList {
		assignment[v] = int32(sampleDist(rng, s.dists[v]))
	}

	value := func(v int32) int32 { return assignment[v] }
	holdsUnder := func(e cexpr) bool {
		x := value(e.x)
		switch e.kind {
		case ctable.VarLTConst:
			return x < e.c
		case ctable.VarGTConst:
			return x > e.c
		default:
			return x > value(e.y)
		}
	}
	violated := func() []cexpr {
		for _, cl := range clauses {
			sat := false
			for _, e := range cl {
				if holdsUnder(e) {
					sat = true
					break
				}
			}
			if !sat {
				return cl
			}
		}
		return nil
	}

	const maxFlips = 50
	for flip := 0; flip < maxFlips; flip++ {
		cl := violated()
		if cl == nil {
			return assignment, true
		}
		// Repair: pick a random expression of the violated clause and
		// resample one of its variables toward satisfaction, respecting
		// zero-probability values.
		e := cl[rng.Intn(len(cl))]
		target := e.x
		if e.y >= 0 && rng.Intn(2) == 1 {
			target = e.y
		}
		dist := s.dists[target]
		for tries := 0; tries < 4; tries++ {
			a := int32(sampleDist(rng, dist))
			if a != assignment[target] {
				assignment[target] = a
				break
			}
		}
	}
	if violated() == nil {
		return assignment, true
	}
	return nil, false
}
