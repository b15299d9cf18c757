package bayesnet

import (
	"fmt"
	"sort"
	"sync"
)

// family is one node's CPT compiled, in New, into the layout inference
// reads: the node and its parents in ascending index order, each
// variable's stride into vals (the last variable varies fastest), and
// the CPT entries scattered into that order. Families are read-only
// after New, which is what makes inference safe for concurrent use.
type family struct {
	vars    []int
	strides []int
	vals    []float64
}

// compileFamily builds node i's family table from its CPT.
func (n *Network) compileFamily(i int) family {
	node := &n.Nodes[i]
	vars := append(append(make([]int, 0, len(node.Parents)+1), node.Parents...), i)
	sort.Ints(vars)
	strides := make([]int, len(vars))
	size := 1
	for k := len(vars) - 1; k >= 0; k-- {
		strides[k] = size
		size *= n.Nodes[vars[k]].Levels
	}
	strideOf := func(v int) int { return strides[indexOfInt(vars, v)] }
	vals := make([]float64, size)
	// Walk the CPT in its own order (parent configuration major, node
	// value minor) and scatter each entry to its family offset.
	cfgs := len(node.CPT) / node.Levels
	self := strideOf(i)
	for cfg := 0; cfg < cfgs; cfg++ {
		off, rem := 0, cfg
		for k := len(node.Parents) - 1; k >= 0; k-- {
			p := node.Parents[k]
			off += rem % n.Nodes[p].Levels * strideOf(p)
			rem /= n.Nodes[p].Levels
		}
		for v := 0; v < node.Levels; v++ {
			vals[off+v*self] = node.CPT[cfg*node.Levels+v]
		}
	}
	return family{vars: vars, strides: strides, vals: vals}
}

// view is an inference factor: a strided window onto a value table.
// The value at an assignment of vars is vals[base + Σ strides[k]·x_k].
// A node's family restricted by evidence is a view onto the family
// table itself (the observed variables fold into base), so restriction
// copies no values; a factor produced by elimination is a dense table
// over vars with the last variable varying fastest.
type view struct {
	vars    []int
	strides []int
	base    int
	vals    []float64
}

// scratch is the reusable working memory of one posterior computation.
// Every slice is truncated, never freed, between calls, so a warmed
// scratch makes inference allocation-free.
type scratch struct {
	live    []view    // factor list, in elimination-list order
	members []view    // factors mentioning the variable being eliminated
	hidden  []int     // variables still to eliminate, ascending
	ints    []int     // arena for restricted and produced vars/strides
	vals    []float64 // arena for produced factor values
	mark    []int     // per-node epoch stamps for set unions
	epoch   int
	union   []int // sorted union of the members' vars
	mstr    []int // member strides: mstr[j*len(union)+k]
	digits  []int // odometer digits over the output vars
	offs    []int // per-member offsets at the current output cell
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// stamp starts a new set-union pass over the mark array.
func (s *scratch) stamp(nodes int) int {
	if len(s.mark) < nodes {
		s.mark = make([]int, nodes)
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// Posterior returns P(target | evidence) as a distribution over the
// target's levels, computed exactly by variable elimination. evidence maps
// node index to observed value; the target must not be in the evidence.
// If the evidence has zero probability under the network, the uniform
// distribution is returned (no information). It is PosteriorInto over a
// dense copy of the evidence.
func (n *Network) Posterior(target int, evidence map[int]int) []float64 {
	if target < 0 || target >= len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: Posterior target %d outside [0,%d)", target, len(n.Nodes)))
	}
	dense := make([]int, len(n.Nodes))
	for i := range dense {
		dense[i] = -1
	}
	for v, val := range evidence {
		if v < 0 || v >= len(n.Nodes) || val < 0 {
			panic(fmt.Sprintf("bayesnet: Posterior evidence %d=%d outside the network", v, val))
		}
		dense[v] = val
	}
	dist := make([]float64, n.Nodes[target].Levels)
	n.PosteriorInto(target, dense, dist)
	return dist
}

// PosteriorInto writes P(target | evidence) into dist, which must have
// one entry per target level. evidence holds one entry per node: the
// observed value, or a negative number for a hidden node; the target
// must be hidden. The computation is exact variable elimination over the
// compiled family tables (greedy min-size order, lowest index on ties)
// and allocates nothing once warmed. Zero-probability evidence yields
// the uniform distribution. It is safe for concurrent use.
func (n *Network) PosteriorInto(target int, evidence []int, dist []float64) {
	if target < 0 || target >= len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: Posterior target %d outside [0,%d)", target, len(n.Nodes)))
	}
	if len(n.fams) != len(n.Nodes) {
		panic("bayesnet: PosteriorInto on a Network not built by New")
	}
	if len(evidence) != len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: PosteriorInto evidence has %d entries, want %d", len(evidence), len(n.Nodes)))
	}
	if evidence[target] >= 0 {
		panic(fmt.Sprintf("bayesnet: Posterior target %d is in the evidence", target))
	}
	if len(dist) != n.Nodes[target].Levels {
		panic(fmt.Sprintf("bayesnet: PosteriorInto dist has %d entries, want %d", len(dist), n.Nodes[target].Levels))
	}
	for i, e := range evidence {
		if e >= n.Nodes[i].Levels {
			panic(fmt.Sprintf("bayesnet: evidence value %d for node %d outside [0,%d)", e, i, n.Nodes[i].Levels))
		}
	}
	s := scratchPool.Get().(*scratch)
	n.eliminateAll(s, target, evidence)
	for t := range dist {
		dist[t] = 1
	}
	for _, f := range s.live {
		f.mulInto(dist, target)
	}
	scratchPool.Put(s)
	normalise(dist)
}

// eliminateAll restricts every family by the evidence, in node order,
// then eliminates every hidden variable but the target, greedily picking
// the one whose product factor is smallest (lowest index on ties). It
// leaves in s.live the factors over {target} or constants, in list
// order: survivors first, each elimination's result appended at the end.
func (n *Network) eliminateAll(s *scratch, target int, evidence []int) {
	s.live, s.hidden = s.live[:0], s.hidden[:0]
	s.ints, s.vals = s.ints[:0], s.vals[:0]
	for i := range n.fams {
		s.live = append(s.live, s.restrict(&n.fams[i], evidence))
	}
	for i, e := range evidence {
		if e < 0 && i != target {
			s.hidden = append(s.hidden, i)
		}
	}
	for len(s.hidden) > 0 {
		h := n.cheapest(s)
		v := s.hidden[h]
		s.hidden = append(s.hidden[:h], s.hidden[h+1:]...)
		n.eliminate(s, v)
	}
}

// restrict returns family f with the observed variables fixed: a view
// onto f's own table whose base absorbs the observed offsets.
func (s *scratch) restrict(f *family, evidence []int) view {
	base, start := 0, len(s.ints)
	for k, v := range f.vars {
		if e := evidence[v]; e >= 0 {
			base += e * f.strides[k]
		} else {
			s.ints = append(s.ints, v)
		}
	}
	mid := len(s.ints)
	for k, v := range f.vars {
		if evidence[v] < 0 {
			s.ints = append(s.ints, f.strides[k])
		}
	}
	end := len(s.ints)
	return view{vars: s.ints[start:mid:mid], strides: s.ints[mid:end:end], base: base, vals: f.vals}
}

// cheapest returns the position in s.hidden of the variable whose
// elimination multiplies the smallest factor: the product of the levels
// of every variable sharing a factor with it. Ties go to the lowest
// index, since s.hidden is ascending.
func (n *Network) cheapest(s *scratch) int {
	best, bestCost := -1, 0
	for h, v := range s.hidden {
		ep := s.stamp(len(n.Nodes))
		cost := 1
		for _, f := range s.live {
			if !containsInt(f.vars, v) {
				continue
			}
			for _, u := range f.vars {
				if s.mark[u] != ep {
					s.mark[u] = ep
					cost *= n.Nodes[u].Levels
				}
			}
		}
		if best < 0 || cost < bestCost {
			best, bestCost = h, cost
		}
	}
	return best
}

// eliminate replaces the factors mentioning v by the sum over v of
// their product, appended after the factors that do not mention v. For
// each output cell the product is taken in list order and the sum
// accumulates from zero in increasing value of v, so every rounding step
// is that of multiplying the factors pairwise into one table and then
// summing v out of it.
func (n *Network) eliminate(s *scratch, v int) {
	s.members = s.members[:0]
	keep := s.live[:0]
	for _, f := range s.live {
		if containsInt(f.vars, v) {
			s.members = append(s.members, f)
		} else {
			keep = append(keep, f)
		}
	}
	s.live = keep

	// The members' variable union, ascending, and v's place in it.
	ep := s.stamp(len(n.Nodes))
	for _, f := range s.members {
		for _, u := range f.vars {
			s.mark[u] = ep
		}
	}
	s.union = s.union[:0]
	vpos := 0
	for u := range n.Nodes {
		if s.mark[u] == ep {
			if u == v {
				vpos = len(s.union)
			}
			s.union = append(s.union, u)
		}
	}
	w, m := len(s.union), len(s.members)

	// Output factor: the union without v, dense, last variable fastest.
	start := len(s.ints)
	for _, u := range s.union {
		if u != v {
			s.ints = append(s.ints, u)
		}
	}
	mid := len(s.ints)
	for i := start; i < mid; i++ {
		s.ints = append(s.ints, 0)
	}
	end := len(s.ints)
	vars, strides := s.ints[start:mid:mid], s.ints[mid:end:end]
	size := 1
	for k := len(vars) - 1; k >= 0; k-- {
		strides[k] = size
		size *= n.Nodes[vars[k]].Levels
	}
	vstart := len(s.vals)
	for i := 0; i < size; i++ {
		s.vals = append(s.vals, 0)
	}
	out := s.vals[vstart : vstart+size : vstart+size]

	// Each member's stride for every union variable (0 where absent).
	s.mstr = resize(s.mstr, m*w)
	s.offs = resize(s.offs, m)
	for j, f := range s.members {
		for k, u := range f.vars {
			s.mstr[j*w+indexOfInt(s.union, u)] = f.strides[k]
		}
		s.offs[j] = f.base
	}
	s.digits = resize(s.digits, w)

	levels := n.Nodes[v].Levels
	for idx := range out {
		acc := 0.0
		for x := 0; x < levels; x++ {
			p := s.members[0].vals[s.offs[0]+x*s.mstr[vpos]]
			for j := 1; j < m; j++ {
				p *= s.members[j].vals[s.offs[j]+x*s.mstr[j*w+vpos]]
			}
			acc += p
		}
		out[idx] = acc
		// Advance the odometer over the output variables.
		for k := w - 1; k >= 0; k-- {
			if k == vpos {
				continue
			}
			s.digits[k]++
			for j := range s.offs {
				s.offs[j] += s.mstr[j*w+k]
			}
			card := n.Nodes[s.union[k]].Levels
			if s.digits[k] < card {
				break
			}
			for j := range s.offs {
				s.offs[j] -= card * s.mstr[j*w+k]
			}
			s.digits[k] = 0
		}
	}
	s.live = append(s.live, view{vars: vars, strides: strides, vals: out})
}

// resize returns buf with length k and every entry zero, reusing its
// storage when large enough.
func resize(buf []int, k int) []int {
	if cap(buf) < k {
		return make([]int, k)
	}
	buf = buf[:k]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// mulInto multiplies a factor over {target} (or a constant) into dist,
// entry by entry.
func (f view) mulInto(dist []float64, target int) {
	step := 0
	for k, u := range f.vars {
		if u == target {
			step = f.strides[k]
		}
	}
	for t := range dist {
		dist[t] *= f.vals[f.base+t*step]
	}
}

// normalise scales dist to sum to one, or makes it uniform when it has
// no mass (zero-probability evidence).
func normalise(dist []float64) {
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if sum <= 0 {
		for t := range dist {
			dist[t] = 1 / float64(len(dist))
		}
		return
	}
	for t := range dist {
		dist[t] /= sum
	}
}
