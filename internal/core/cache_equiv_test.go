package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
)

// TestCacheEquivalence is Options.NoCache's correctness gate: full
// framework runs with and without it, over identical datasets, seeds,
// and strategies, must produce identical answer sets and final
// probabilities within 1e-12. The default scores UBS/HHS candidates
// through the incremental component scan while NoCache re-solves the full
// formula per candidate (the legacy cost profile the cache experiment
// compares against); the two factor the same product in a different
// order, hence the 1e-12 tolerance rather than exact equality.
func TestCacheEquivalence(t *testing.T) {
	for _, strat := range []Strategy{FBS, UBS, HHS} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			truth := dataset.GenNBA(rng, 150)
			d := truth.InjectMissing(rng, 0.15)
			base, err := Preprocess(d, Options{MarginalsOnly: true, Budget: 1, Latency: 1})
			if err != nil {
				t.Fatal(err)
			}

			run := func(noCache bool) *Result {
				res, err := RunWithDists(d, base, crowd.NewSimulated(truth, 1.0, nil), Options{
					Alpha: 0.05, Budget: 30, Latency: 5, Strategy: strat, M: 3,
					NoCache: noCache, Workers: 1, Rng: rand.New(rand.NewSource(seed * 7)),
				})
				if err != nil {
					t.Fatalf("RunWithDists(NoCache=%v): %v", noCache, err)
				}
				return res
			}

			cached, plain := run(false), run(true)
			if !reflect.DeepEqual(cached.Answers, plain.Answers) {
				t.Errorf("%v seed %d: answer sets differ between cache on and off\n on:  %v\n off: %v",
					strat, seed, cached.Answers, plain.Answers)
			}
			if len(cached.Probs) != len(plain.Probs) {
				t.Fatalf("%v seed %d: tracked-object sets differ: %d vs %d objects",
					strat, seed, len(cached.Probs), len(plain.Probs))
			}
			for o, p := range cached.Probs {
				q, ok := plain.Probs[o]
				if !ok {
					t.Fatalf("%v seed %d: object %d tracked only with cache on", strat, seed, o)
				}
				if math.Abs(p-q) > 1e-12 {
					t.Errorf("%v seed %d: Pr(φ(o%d)) drifts: cached %v vs uncached %v", strat, seed, o, p, q)
				}
			}
		}
	}
}
