package core

import (
	"fmt"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/prob"
)

// minRowsForStructure is the smallest number of complete rows for which
// structure learning is attempted; below it the preprocessing falls back
// to independent empirical marginals.
const minRowsForStructure = 50

// Imputer supplies a distribution for every missing cell of a dataset —
// the pluggable preprocessing model. The Bayesian-network path is built
// in; internal/dae provides the denoising-autoencoder alternative the
// paper mentions in §3.
type Imputer interface {
	Distributions(d *dataset.Dataset) (prob.Dists, error)
}

// Preprocess performs the paper's preprocessing step (§3): obtain a
// Bayesian network over the data attributes (train one on the dataset's
// complete rows unless one is supplied) and derive, for every missing
// cell, the posterior distribution of its value given the object's
// observed cells.
func Preprocess(d *dataset.Dataset, opt Options) (prob.Dists, error) {
	if opt.Imputer != nil {
		dists, err := opt.Imputer.Distributions(d)
		if err != nil {
			return nil, err
		}
		return emitPreprocess(opt, "imputer", dists), nil
	}
	if opt.MarginalsOnly {
		return emitPreprocess(opt, "marginals", marginalDists(d)), nil
	}
	net := opt.Net
	model := "net"
	if net == nil {
		var err error
		net, err = learnNetwork(d, opt)
		if err != nil {
			return nil, err
		}
		if net == nil {
			// Too few complete rows for structure learning.
			return emitPreprocess(opt, "marginals-fallback", marginalDists(d)), nil
		}
		model = "learned"
	}
	if err := checkNetSchema(d, net); err != nil {
		return nil, err
	}
	return emitPreprocess(opt, model, posteriors(d, net)), nil
}

// emitPreprocess traces which preprocessing model produced the
// missing-value distributions and how many there are, passing the
// distributions through for call-site brevity.
func emitPreprocess(opt Options, model string, dists prob.Dists) prob.Dists {
	opt.Trace.Emit(obs.Event{Kind: obs.KindPreprocess, N: len(dists), Note: model})
	return dists
}

// LearnNetwork trains Bayesian-network structure and parameters on the
// complete rows of the (possibly incomplete) dataset — the preprocessing
// step run standalone, so deployments can persist the network
// (bayesnet.WriteJSON) instead of re-learning per query. It returns an
// error when fewer than 50 complete rows are available.
func LearnNetwork(d *dataset.Dataset, opts bayesnet.LearnOptions) (*bayesnet.Network, error) {
	net, err := learnNetwork(d, Options{LearnOpts: opts})
	if err != nil {
		return nil, err
	}
	if net == nil {
		return nil, fmt.Errorf("core: too few complete rows for structure learning (need %d)", minRowsForStructure)
	}
	return net, nil
}

// learnNetwork trains structure and parameters on the complete rows of
// the (incomplete) dataset, returning nil when there are too few.
func learnNetwork(d *dataset.Dataset, opt Options) (*bayesnet.Network, error) {
	rows := d.CompleteRows()
	if len(rows) < minRowsForStructure {
		return nil, nil
	}
	names, levels := d.Schema()
	return bayesnet.LearnStructure(names, levels, rows, opt.LearnOpts)
}

// checkNetSchema verifies the network's nodes line up with the dataset's
// attributes (same count and levels).
func checkNetSchema(d *dataset.Dataset, net *bayesnet.Network) error {
	if net.NumNodes() != d.NumAttrs() {
		return fmt.Errorf("core: network has %d nodes, dataset has %d attributes", net.NumNodes(), d.NumAttrs())
	}
	for j, a := range d.Attrs {
		if net.Nodes[j].Levels != a.Levels {
			return fmt.Errorf("core: node %q has %d levels, attribute %q has %d",
				net.Nodes[j].Name, net.Nodes[j].Levels, a.Name, a.Levels)
		}
	}
	return nil
}

// posteriors runs exact inference once per missing cell, conditioning on
// the object's observed cells. Distinct (target, evidence) pairs are
// about as many as missing cells on realistic data, so there is nothing
// to memoise.
func posteriors(d *dataset.Dataset, net *bayesnet.Network) prob.Dists {
	dists := prob.Dists{}
	evidence := make([]int, d.NumAttrs())
	for i := range d.Objects {
		o := &d.Objects[i]
		for j, c := range o.Cells {
			evidence[j] = c.Value
			if c.Missing {
				evidence[j] = -1
			}
		}
		for j, c := range o.Cells {
			if c.Missing {
				dist := make([]float64, net.Nodes[j].Levels)
				net.PosteriorInto(j, evidence, dist)
				dists[ctable.Var{Obj: i, Attr: j}] = dist
			}
		}
	}
	return dists
}

// marginalDists models every missing cell by its attribute's empirical
// marginal over the observed values, with add-one smoothing so no code
// has zero prior probability (the paper assumes every missing value can
// take any domain value).
func marginalDists(d *dataset.Dataset) prob.Dists {
	counts := make([][]float64, d.NumAttrs())
	for j, a := range d.Attrs {
		counts[j] = make([]float64, a.Levels)
	}
	for i := range d.Objects {
		for j, c := range d.Objects[i].Cells {
			if !c.Missing {
				counts[j][c.Value]++
			}
		}
	}
	marginals := make([][]float64, d.NumAttrs())
	for j := range counts {
		total := 0.0
		for _, c := range counts[j] {
			total += c + 1
		}
		m := make([]float64, len(counts[j]))
		for v, c := range counts[j] {
			m[v] = (c + 1) / total
		}
		marginals[j] = m
	}
	dists := prob.Dists{}
	for i := range d.Objects {
		for j, c := range d.Objects[i].Cells {
			if c.Missing {
				dists[ctable.Var{Obj: i, Attr: j}] = marginals[j]
			}
		}
	}
	return dists
}

// conditionDist renormalises a base posterior over the interval of values
// the knowledge still allows for the variable; answers outside the
// interval carry probability zero.
func conditionDist(base []float64, lo, hi int) []float64 {
	out := make([]float64, len(base))
	sum := 0.0
	for v := lo; v <= hi && v < len(base); v++ {
		sum += base[v]
	}
	if sum <= 0 {
		// The posterior gave zero mass to every remaining value; fall
		// back to uniform over the interval so the framework can proceed.
		width := hi - lo + 1
		for v := lo; v <= hi && v < len(base); v++ {
			out[v] = 1 / float64(width)
		}
		return out
	}
	for v := lo; v <= hi && v < len(base); v++ {
		out[v] = base[v] / sum
	}
	return out
}
