package bayesnet

import (
	"fmt"
	"sort"
)

// factor is a nonnegative function over a subset of network variables,
// used by the reference variable-elimination engine. vars are node indices in
// ascending order; vals is indexed in mixed radix with the LAST variable
// varying fastest.
type factor struct {
	vars []int
	card []int
	vals []float64
}

func newFactor(vars, card []int) *factor {
	size := 1
	for _, c := range card {
		size *= c
	}
	return &factor{vars: vars, card: card, vals: make([]float64, size)}
}

// index returns the flat index of the given per-variable values.
func (f *factor) index(values []int) int {
	idx := 0
	for i := range f.vars {
		idx = idx*f.card[i] + values[i]
	}
	return idx
}

// product multiplies two factors over the union of their variables.
func product(a, b *factor) *factor {
	// Union of vars, ascending.
	varsUnion := make([]int, 0, len(a.vars)+len(b.vars))
	varsUnion = append(varsUnion, a.vars...)
	for _, v := range b.vars {
		if !containsInt(a.vars, v) {
			varsUnion = append(varsUnion, v)
		}
	}
	sort.Ints(varsUnion)

	cardOf := func(v int) int {
		if i := indexOfInt(a.vars, v); i >= 0 {
			return a.card[i]
		}
		return b.card[indexOfInt(b.vars, v)]
	}
	card := make([]int, len(varsUnion))
	for i, v := range varsUnion {
		card[i] = cardOf(v)
	}
	out := newFactor(varsUnion, card)

	// Map union positions to positions in a and b (-1 if absent).
	posA := make([]int, len(varsUnion))
	posB := make([]int, len(varsUnion))
	for i, v := range varsUnion {
		posA[i] = indexOfInt(a.vars, v)
		posB[i] = indexOfInt(b.vars, v)
	}

	values := make([]int, len(varsUnion))
	aVals := make([]int, len(a.vars))
	bVals := make([]int, len(b.vars))
	for flat := range out.vals {
		// Decode flat into values (last var fastest).
		rem := flat
		for i := len(values) - 1; i >= 0; i-- {
			values[i] = rem % card[i]
			rem /= card[i]
		}
		for i, p := range posA {
			if p >= 0 {
				aVals[p] = values[i]
			}
		}
		for i, p := range posB {
			if p >= 0 {
				bVals[p] = values[i]
			}
		}
		out.vals[flat] = a.vals[a.index(aVals)] * b.vals[b.index(bVals)]
	}
	return out
}

// sumOut marginalises variable v out of the factor.
func (f *factor) sumOut(v int) *factor {
	pos := indexOfInt(f.vars, v)
	if pos < 0 {
		return f
	}
	vars := make([]int, 0, len(f.vars)-1)
	card := make([]int, 0, len(f.vars)-1)
	for i, fv := range f.vars {
		if i != pos {
			vars = append(vars, fv)
			card = append(card, f.card[i])
		}
	}
	out := newFactor(vars, card)

	values := make([]int, len(f.vars))
	outVals := make([]int, len(vars))
	for flat, val := range f.vals {
		rem := flat
		for i := len(values) - 1; i >= 0; i-- {
			values[i] = rem % f.card[i]
			rem /= f.card[i]
		}
		k := 0
		for i := range values {
			if i != pos {
				outVals[k] = values[i]
				k++
			}
		}
		out.vals[out.index(outVals)] += val
	}
	return out
}

// restrict fixes variable v to value val, dropping it from the factor.
func (f *factor) restrict(v, val int) *factor {
	pos := indexOfInt(f.vars, v)
	if pos < 0 {
		return f
	}
	vars := make([]int, 0, len(f.vars)-1)
	card := make([]int, 0, len(f.vars)-1)
	for i, fv := range f.vars {
		if i != pos {
			vars = append(vars, fv)
			card = append(card, f.card[i])
		}
	}
	out := newFactor(vars, card)

	values := make([]int, len(f.vars))
	outVals := make([]int, len(vars))
	for flat, fval := range f.vals {
		rem := flat
		for i := len(values) - 1; i >= 0; i-- {
			values[i] = rem % f.card[i]
			rem /= f.card[i]
		}
		if values[pos] != val {
			continue
		}
		k := 0
		for i := range values {
			if i != pos {
				outVals[k] = values[i]
				k++
			}
		}
		out.vals[out.index(outVals)] = fval
	}
	return out
}

// cptFactor converts node i's CPT into a factor over {parents..., i}.
func (n *Network) cptFactor(i int) *factor {
	node := &n.Nodes[i]
	vars := append(append([]int(nil), node.Parents...), i)
	sort.Ints(vars)
	card := make([]int, len(vars))
	for k, v := range vars {
		card[k] = n.Nodes[v].Levels
	}
	f := newFactor(vars, card)

	// Enumerate parent configs × node values in CPT order and scatter
	// into the sorted-variable factor layout.
	parentVals := make([]int, len(node.Parents))
	factorVals := make([]int, len(vars))
	cfgs := len(node.CPT) / node.Levels
	for cfg := 0; cfg < cfgs; cfg++ {
		rem := cfg
		for k := len(parentVals) - 1; k >= 0; k-- {
			parentVals[k] = rem % n.Nodes[node.Parents[k]].Levels
			rem /= n.Nodes[node.Parents[k]].Levels
		}
		for v := 0; v < node.Levels; v++ {
			for k, fv := range vars {
				if fv == i {
					factorVals[k] = v
				} else {
					factorVals[k] = parentVals[indexOfInt(node.Parents, fv)]
				}
			}
			f.vals[f.index(factorVals)] = node.CPT[cfg*node.Levels+v]
		}
	}
	return f
}

// referencePosterior is the variable-elimination engine that preceded
// the compiled kernel, kept verbatim as the bit-identity oracle for
// PosteriorInto: per-call CPT factors, a restrict chain per evidence
// variable, and div/mod product and sumOut over freshly allocated
// factors. Every floating-point operation it performs, and their order,
// is the contract the kernel reproduces.
func referencePosterior(n *Network, target int, evidence map[int]int) []float64 {
	if target < 0 || target >= len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: Posterior target %d outside [0,%d)", target, len(n.Nodes)))
	}
	if _, ok := evidence[target]; ok {
		panic(fmt.Sprintf("bayesnet: Posterior target %d is in the evidence", target))
	}

	// Build CPT factors restricted by evidence.
	factors := make([]*factor, 0, len(n.Nodes))
	for i := range n.Nodes {
		f := n.cptFactor(i)
		for v, val := range evidence {
			f = f.restrict(v, val) // returns f unchanged when v is absent
		}
		factors = append(factors, f)
	}

	// Eliminate every hidden variable except the target, greedily picking
	// the variable whose elimination creates the smallest product factor.
	hidden := map[int]bool{}
	for i := range n.Nodes {
		if i == target {
			continue
		}
		if _, ok := evidence[i]; !ok {
			hidden[i] = true
		}
	}
	for len(hidden) > 0 {
		best, bestCost := -1, 0
		for v := range hidden {
			cost := 1
			seen := map[int]bool{}
			for _, f := range factors {
				if containsInt(f.vars, v) {
					for k, fv := range f.vars {
						if !seen[fv] {
							seen[fv] = true
							cost *= f.card[k]
						}
					}
				}
			}
			if best == -1 || cost < bestCost || (cost == bestCost && v < best) {
				best, bestCost = v, cost
			}
		}
		factors = eliminate(factors, best)
		delete(hidden, best)
	}

	// Multiply the remaining factors (all over {target} or empty).
	result := &factor{vars: nil, card: nil, vals: []float64{1}}
	for _, f := range factors {
		result = product(result, f)
	}

	dist := make([]float64, n.Nodes[target].Levels)
	if len(result.vars) == 0 {
		// Target was fully determined away — cannot happen since we never
		// eliminate it; defensive uniform fallback.
		for v := range dist {
			dist[v] = 1 / float64(len(dist))
		}
		return dist
	}
	copy(dist, result.vals)
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if sum <= 0 {
		for v := range dist {
			dist[v] = 1 / float64(len(dist))
		}
		return dist
	}
	for v := range dist {
		dist[v] /= sum
	}
	return dist
}

// eliminate multiplies all factors mentioning v and sums v out.
func eliminate(factors []*factor, v int) []*factor {
	var keep []*factor
	var prod *factor
	for _, f := range factors {
		if containsInt(f.vars, v) {
			if prod == nil {
				prod = f
			} else {
				prod = product(prod, f)
			}
		} else {
			keep = append(keep, f)
		}
	}
	if prod != nil {
		keep = append(keep, prod.sumOut(v))
	}
	return keep
}
