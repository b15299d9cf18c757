package bench

import (
	"math/rand"
	"sort"
	"time"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/prob"
	"bayescrowd/internal/skyline"
)

// env bundles everything one experiment configuration needs: the hidden
// ground truth, the incomplete dataset the framework sees, the ground-
// truth Bayesian network (preprocessing shortcut), the precomputed
// missing-value posteriors, and the true skyline for scoring.
type env struct {
	truth, incomplete *dataset.Dataset
	net               *bayesnet.Network
	sky               []int
	distsOnce         prob.Dists
}

// dists lazily computes the missing-value posteriors: the construction
// experiments (Figures 2-3 partially) never need them.
func (e *env) dists() prob.Dists {
	if e.distsOnce == nil {
		d, err := core.Preprocess(e.incomplete, core.Options{Net: e.net})
		if err != nil {
			panic(err)
		}
		e.distsOnce = d
	}
	return e.distsOnce
}

// nbaEnv generates an NBA-scale environment with the given cardinality and
// missing rate.
func nbaEnv(s Scale, n int, missingRate float64) *env {
	rng := rand.New(rand.NewSource(s.Seed))
	truth := dataset.GenNBA(rng, n)
	return finishEnv(truth, truth.InjectMissing(rng, missingRate), dataset.NBANet())
}

// synEnv generates a Synthetic (Adult-BN) environment.
func synEnv(s Scale, n int, missingRate float64) *env {
	rng := rand.New(rand.NewSource(s.Seed + 1))
	truth := dataset.GenAdultSynthetic(rng, n)
	return finishEnv(truth, truth.InjectMissing(rng, missingRate), dataset.AdultNet())
}

// fig4Env generates the CrowdSky comparison setup (§7.3): the NBA dataset
// with every value of the chosen crowd attributes missing and the rest
// complete.
func fig4Env(s Scale, n int) *env {
	rng := rand.New(rand.NewSource(s.Seed + 2))
	truth := dataset.GenNBA(rng, n)
	return finishEnv(truth, truth.HideAttrs(s.Fig4CrowdAttrs...), dataset.NBANet())
}

func finishEnv(truth, incomplete *dataset.Dataset, net *bayesnet.Network) *env {
	return &env{
		truth:      truth,
		incomplete: incomplete,
		net:        net,
		sky:        skyline.BNL(truth),
	}
}

// outcome is one BayesCrowd measurement.
type outcome struct {
	elapsed time.Duration
	f1      float64
	tasks   int
	rounds  int
}

// runBayesReps repeats a measurement with varied seeds, reporting the
// median time and mean F1/tasks/rounds; quick-scale cells are noisy
// one-shot.
func runBayesReps(e *env, opt core.Options, accuracy float64, seed int64, reps int) outcome {
	if reps < 1 {
		reps = 1
	}
	outs := make([]outcome, reps)
	for r := range outs {
		o := opt
		o.Rng = nil // fresh per rep
		outs[r] = runBayes(e, o, accuracy, seed+int64(r)*101)
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].elapsed < outs[b].elapsed })
	agg := outs[reps/2] // median time
	var f1, tasks, rounds float64
	for _, o := range outs {
		f1 += o.f1
		tasks += float64(o.tasks)
		rounds += float64(o.rounds)
	}
	agg.f1 = f1 / float64(reps)
	agg.tasks = int(tasks / float64(reps))
	agg.rounds = int(rounds / float64(reps))
	return agg
}

// runBayes times one BayesCrowd run (modeling + crowdsourcing phases, the
// way the paper measures execution time; preprocessing is offline) and
// scores its result against the complete-data skyline.
func runBayes(e *env, opt core.Options, accuracy float64, seed int64) outcome {
	var workerRng *rand.Rand
	if accuracy < 1 {
		workerRng = rand.New(rand.NewSource(seed))
	}
	platform := crowd.NewSimulated(e.truth, accuracy, workerRng)
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(seed + 1))
	}
	dists := e.dists() // preprocessing is offline; force it before timing
	start := time.Now()
	res, err := core.RunWithDists(e.incomplete, dists, platform, opt)
	elapsed := time.Since(start)
	if err != nil {
		panic(err)
	}
	return outcome{
		elapsed: elapsed,
		f1:      metrics.F1(res.Answers, e.sky),
		tasks:   res.TasksPosted,
		rounds:  res.Rounds,
	}
}

// strategies is the fixed presentation order of the three selectors.
var strategies = []core.Strategy{core.FBS, core.UBS, core.HHS}

// nbaOpts and synOpts return the paper-default options for their dataset
// family, with the strategy filled in.
func nbaOpts(s Scale, strat core.Strategy) core.Options {
	return core.Options{
		Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency,
		Strategy: strat, M: s.NBAM, Workers: s.Workers,
	}
}

func synOpts(s Scale, strat core.Strategy) core.Options {
	return core.Options{
		Alpha: s.SynAlpha, Budget: s.SynBudget, Latency: s.SynLatency,
		Strategy: strat, M: s.SynM, Workers: s.Workers,
	}
}
