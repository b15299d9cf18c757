package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
)

// runWithWorkers executes one full pipeline run (empirical-marginal
// preprocessing, so the test exercises modeling + crowdsourcing, not BN
// structure learning) with a fresh deterministic Rng.
func runWithWorkers(t *testing.T, d, truth *dataset.Dataset, strat Strategy, workers int, seed int64) *Result {
	t.Helper()
	res, err := Run(d, crowd.NewSimulated(truth, 1.0, nil), Options{
		Alpha:         0.05,
		Budget:        30,
		Latency:       5,
		Strategy:      strat,
		M:             3,
		MarginalsOnly: true,
		Workers:       workers,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return res
}

// TestWorkersEquivalence is the tentpole's determinism gate: the full
// framework must produce byte-for-byte identical Results at Workers=1
// (the exact sequential baseline) and Workers=8, across seeded random
// datasets and all three strategies.
func TestWorkersEquivalence(t *testing.T) {
	for _, strat := range []Strategy{FBS, UBS, HHS} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			truth := dataset.GenNBA(rng, 150)
			d := truth.InjectMissing(rng, 0.15)

			seq := runWithWorkers(t, d, truth, strat, 1, seed*7)
			par := runWithWorkers(t, d, truth, strat, 8, seed*7)

			if !reflect.DeepEqual(seq.Answers, par.Answers) {
				t.Errorf("%v seed %d: answers differ\n workers=1: %v\n workers=8: %v",
					strat, seed, seq.Answers, par.Answers)
			}
			if !reflect.DeepEqual(seq.Probs, par.Probs) {
				t.Errorf("%v seed %d: final probabilities differ\n workers=1: %v\n workers=8: %v",
					strat, seed, seq.Probs, par.Probs)
			}
			if seq.TasksPosted != par.TasksPosted || seq.Rounds != par.Rounds ||
				seq.BudgetSpent != par.BudgetSpent || seq.ConflictingAnswers != par.ConflictingAnswers {
				t.Errorf("%v seed %d: counters differ: workers=1 (%d tasks, %d rounds, %d spent, %d conflicts) vs workers=8 (%d, %d, %d, %d)",
					strat, seed,
					seq.TasksPosted, seq.Rounds, seq.BudgetSpent, seq.ConflictingAnswers,
					par.TasksPosted, par.Rounds, par.BudgetSpent, par.ConflictingAnswers)
			}
		}
	}
}

// TestRunWithDistsWorkersEquivalence covers the benchmark entry point:
// precomputed posteriors shared (not copied) between a sequential and a
// parallel run must still yield identical results, because crowdPhase
// copies base into its own effective-distribution map.
func TestRunWithDistsWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := dataset.GenNBA(rng, 120)
	d := truth.InjectMissing(rng, 0.2)
	base, err := Preprocess(d, Options{MarginalsOnly: true, Budget: 1, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *Result {
		res, err := RunWithDists(d, base, crowd.NewSimulated(truth, 1.0, nil), Options{
			Alpha: 0.05, Budget: 24, Latency: 4, Strategy: HHS, M: 3,
			Workers: workers, Rng: rand.New(rand.NewSource(5)),
		})
		if err != nil {
			t.Fatalf("RunWithDists(workers=%d): %v", workers, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	// Phase timings are observability, not results: wall times are never
	// reproducible, so zero them before the comparison.
	seq.SelectTime, par.SelectTime = 0, 0
	seq.ProbTime, par.ProbTime = 0, 0
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("RunWithDists results differ between workers=1 and workers=8:\n seq: %+v\n par: %+v",
			seq.Answers, par.Answers)
	}
}

// TestParallelPoolHammer drives the full pipeline with far more objects
// than workers so every fan-out saturates the pool and the per-round
// single-writer window (answer absorption mutating the effective
// distributions between fan-outs) is crossed many times. Under
// `go test -race` this is the crowdsourcing loop's data-race gate.
func TestParallelPoolHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := dataset.GenNBA(rng, 400)
	d := truth.InjectMissing(rng, 0.2)
	res, err := Run(d, crowd.NewSimulated(truth, 1.0, nil), Options{
		Alpha:         0.05,
		Budget:        40,
		Latency:       8,
		Strategy:      UBS,
		MarginalsOnly: true,
		Workers:       16,
		Rng:           rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.TasksPosted == 0 {
		t.Fatalf("hammer run did no work: %d rounds, %d tasks", res.Rounds, res.TasksPosted)
	}
}
