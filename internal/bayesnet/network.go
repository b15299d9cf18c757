// Package bayesnet implements discrete Bayesian networks: representation,
// exact inference by variable elimination over compiled CPT tables,
// forward sampling, maximum-likelihood parameter estimation, and greedy
// BIC structure learning.
//
// It is the from-scratch substitute for the two frameworks the paper's
// preprocessing step relies on (§3): Banjo (structure learning) and
// Infer.Net (parameter estimation). BayesCrowd uses it to capture the
// correlation between data attributes and to derive, for every missing
// cell, a posterior distribution conditioned on the object's observed
// cells.
//
// The package is deliberately independent of the dataset package: it
// operates on integer-coded rows ([][]int) so that both dataset generators
// (which sample from a ground-truth network) and the query framework
// (which learns a network from data) can use it without import cycles.
package bayesnet

import (
	"fmt"
	"math"
	"math/rand"
)

// Node is one variable of the network together with its conditional
// probability table.
type Node struct {
	// Name labels the node for reporting.
	Name string
	// Levels is the domain size; values are codes 0..Levels-1.
	Levels int
	// Parents lists the indices of this node's parents in the network.
	Parents []int
	// CPT holds P(node = v | parent configuration) flattened as
	// CPT[cfg*Levels + v], where cfg is the mixed-radix index of the
	// parent values (first parent most significant). For a root node the
	// CPT is simply the marginal distribution of length Levels.
	CPT []float64
}

// Network is a discrete Bayesian network over n nodes. A Network built
// by New is immutable: New compiles every CPT into the read-only tables
// inference reads, so one Network may serve any number of goroutines at
// once (Posterior, PosteriorInto, JointP and Sample only read it). Nodes
// must not be modified after New.
type Network struct {
	Nodes []Node
	topo  []int    // cached topological order
	fams  []family // per-node compiled CPTs, read-only after New
}

// New validates the node set (acyclicity, CPT shapes, normalised rows) and
// returns a ready-to-use network.
func New(nodes []Node) (*Network, error) {
	n := &Network{Nodes: nodes}
	topo, err := topoSort(nodes)
	if err != nil {
		return nil, err
	}
	n.topo = topo
	for i := range nodes {
		if err := n.validateCPT(i); err != nil {
			return nil, err
		}
	}
	n.fams = make([]family, len(nodes))
	for i := range nodes {
		n.fams[i] = n.compileFamily(i)
	}
	return n, nil
}

// MustNew is New that panics on error, for hand-built ground-truth
// networks in generators and tests.
func MustNew(nodes []Node) *Network {
	n, err := New(nodes)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) validateCPT(i int) error {
	node := &n.Nodes[i]
	if node.Levels < 1 {
		return fmt.Errorf("bayesnet: node %q has %d levels", node.Name, node.Levels)
	}
	cfgs := 1
	for k, p := range node.Parents {
		if p < 0 || p >= len(n.Nodes) {
			return fmt.Errorf("bayesnet: node %q has parent index %d outside [0,%d)", node.Name, p, len(n.Nodes))
		}
		if indexOfInt(node.Parents[:k], p) >= 0 {
			return fmt.Errorf("bayesnet: node %q lists parent %d twice", node.Name, p)
		}
		cfgs *= n.Nodes[p].Levels
	}
	if want := cfgs * node.Levels; len(node.CPT) != want {
		return fmt.Errorf("bayesnet: node %q CPT has %d entries, want %d", node.Name, len(node.CPT), want)
	}
	for c := 0; c < cfgs; c++ {
		sum := 0.0
		for v := 0; v < node.Levels; v++ {
			p := node.CPT[c*node.Levels+v]
			if p < 0 || math.IsNaN(p) {
				return fmt.Errorf("bayesnet: node %q CPT config %d has invalid probability %v", node.Name, c, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("bayesnet: node %q CPT config %d sums to %v", node.Name, c, sum)
		}
	}
	return nil
}

// NumNodes returns the number of variables.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// TopoOrder returns a topological ordering of the node indices (parents
// before children). The returned slice must not be modified.
func (n *Network) TopoOrder() []int { return n.topo }

func topoSort(nodes []Node) ([]int, error) {
	indeg := make([]int, len(nodes))
	children := make([][]int, len(nodes))
	for i, nd := range nodes {
		for _, p := range nd.Parents {
			if p < 0 || p >= len(nodes) {
				return nil, fmt.Errorf("bayesnet: node %q has parent index %d outside [0,%d)", nd.Name, p, len(nodes))
			}
			if p == i {
				return nil, fmt.Errorf("bayesnet: node %q is its own parent", nd.Name)
			}
			children[p] = append(children[p], i)
			indeg[i]++
		}
	}
	var queue, order []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, c := range children[u] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("bayesnet: graph contains a cycle")
	}
	return order, nil
}

// parentConfig returns the mixed-radix index of node i's parent values in
// the assignment (first parent most significant).
func (n *Network) parentConfig(i int, assignment []int) int {
	cfg := 0
	for _, p := range n.Nodes[i].Parents {
		cfg = cfg*n.Nodes[p].Levels + assignment[p]
	}
	return cfg
}

// JointP returns the joint probability of a full assignment (one value per
// node).
func (n *Network) JointP(assignment []int) float64 {
	if len(assignment) != len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: JointP assignment has %d values, want %d", len(assignment), len(n.Nodes)))
	}
	p := 1.0
	for i := range n.Nodes {
		node := &n.Nodes[i]
		cfg := n.parentConfig(i, assignment)
		p *= node.CPT[cfg*node.Levels+assignment[i]]
	}
	return p
}

// Sample draws one full assignment by forward sampling in topological
// order.
func (n *Network) Sample(rng *rand.Rand) []int {
	out := make([]int, len(n.Nodes))
	n.SampleInto(rng, out)
	return out
}

// SampleInto is Sample writing into a caller-provided slice to avoid
// per-row allocations in bulk generation.
func (n *Network) SampleInto(rng *rand.Rand, out []int) {
	if len(out) != len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: SampleInto slice has %d values, want %d", len(out), len(n.Nodes)))
	}
	for _, i := range n.topo {
		node := &n.Nodes[i]
		cfg := n.parentConfig(i, out)
		row := node.CPT[cfg*node.Levels : (cfg+1)*node.Levels]
		out[i] = sampleDist(rng, row)
	}
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
	return len(dist) - 1 // guard against rounding drift
}

// Levels returns the domain sizes of all nodes.
func (n *Network) Levels() []int {
	out := make([]int, len(n.Nodes))
	for i, nd := range n.Nodes {
		out[i] = nd.Levels
	}
	return out
}

func containsInt(s []int, v int) bool { return indexOfInt(s, v) >= 0 }

func indexOfInt(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
