package ctable

import (
	"sort"

	"bayescrowd/internal/bitset"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/parallel"
)

// Sort/partition-based c-table build. The per-object derivation pays one
// d-way bitset intersection per object — O(n · d · n/64) for the whole
// table, the quadratic term that caps the build well below the
// million-object scale the ROADMAP asks for. This file removes the n
// factor from the object loop by exploiting two facts:
//
//  1. D(o) depends on o only through its cell signature — the vector of
//     (observed?, value) pairs — because the intersection
//     ∩_j geqm[j][o.[j]] reads nothing else of o. Objects sharing a
//     signature share a candidate set, so the intersection is computed
//     once per distinct signature (group), not once per object.
//
//  2. Sorting the groups lexicographically by signature makes groups
//     with a common signature prefix adjacent, so the partial
//     intersections ∩_{j<k} geqm[j][·] can be shared across neighbours:
//     the number of AND operations drops from (groups · d) to the number
//     of distinct signature prefixes, which for the discrete, few-level
//     attributes of the paper's datasets is close to the group count
//     itself.
//
// On the paper's discrete domains the distinct-signature count is capped
// by Π_j (levels_j + 1) regardless of n, so the build cost becomes
// O(n·d + n log n) for the grouping plus O(prefixes · n/64) bitset work —
// near-linearithmic in n, against quadratic for the per-object scan.
//
// The derived table is bit-identical to a per-object derivation
// (DomIndex.Dominators for every object): a group's intersection always
// contains every member (each member's observed cells satisfy "≥ value
// or missing" against its own signature), so |D(o)| is the group count
// minus one for the object itself, and condition clauses are emitted in
// the same ascending-dominator order ForEach used before, with the self
// bit skipped instead of cleared. Equivalence tests in
// sortbuild_test.go pin this against the pairwise path.

// sigOf writes object o's cell signature into dst: the observed value per
// attribute, or sigMissing for a missing cell.
const sigMissing = int32(-1)

func sigOf(d *dataset.Dataset, o int, dst []int32) {
	for j := range d.Attrs {
		c := d.Objects[o].Cells[j]
		if c.Missing {
			dst[j] = sigMissing
		} else {
			dst[j] = int32(c.Value)
		}
	}
}

// buildSorted derives every object's dominator set via signature groups
// and writes conditions into ct. ix must be the dataset's DomIndex.
func buildSorted(d *dataset.Dataset, ix *DomIndex, opt BuildOptions, ct *CTable, limit int) {
	n := d.Len()
	if n == 0 {
		return
	}
	na := d.NumAttrs()

	// Flat signature matrix: sigs[o*na : (o+1)*na].
	sigs := make([]int32, n*na)
	for o := 0; o < n; o++ {
		sigOf(d, o, sigs[o*na:(o+1)*na])
	}
	sig := func(o int) []int32 { return sigs[o*na : o*na+na] }

	// Sort object indices lexicographically by signature; equal rows form
	// the groups.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := sig(order[a]), sig(order[b])
		for j := 0; j < na; j++ {
			if sa[j] != sb[j] {
				return sa[j] < sb[j]
			}
		}
		return false
	})

	// Group boundaries: starts[g] indexes into order; group g spans
	// order[starts[g]:starts[g+1]].
	starts := []int{0}
	for i := 1; i < n; i++ {
		sa, sb := sig(order[i-1]), sig(order[i])
		for j := 0; j < na; j++ {
			if sa[j] != sb[j] {
				starts = append(starts, i)
				break
			}
		}
	}
	starts = append(starts, n)
	nGroups := len(starts) - 1

	// Each worker owns a stack of partial intersections
	// levels[k] = all ∩ geqm[0][s_0] ∩ … ∩ geqm[k-1][s_{k-1}]
	// (missing attributes alias the previous level: their candidate set is
	// the full set, no AND needed). Workers pull group indices from an
	// atomic cursor in roughly ascending order, so consecutive pulls
	// usually share long signature prefixes and the stack recomputes only
	// the suffix past the first differing attribute. Sharing is a pure
	// optimisation: every group's intersection is a function of its
	// signature alone, so the table is identical at any worker count or
	// interleaving.
	workers := parallel.Workers(opt.Workers)
	type groupScratch struct {
		levels  []*bitset.Set // levels[k], k in 0..na; levels[0] aliases ix.all
		own     []*bitset.Set // backing sets for non-aliased levels
		lastSig []int32       // signature the stack is valid for, nil if none
	}
	scratch := make([]*groupScratch, workers)
	for w := range scratch {
		gs := &groupScratch{
			levels:  make([]*bitset.Set, na+1),
			own:     make([]*bitset.Set, na+1),
			lastSig: nil,
		}
		gs.levels[0] = ix.all
		for k := 1; k <= na; k++ {
			gs.own[k] = bitset.New(n)
		}
		scratch[w] = gs
	}

	parallel.For(workers, nGroups, func(w, g int) {
		gs := scratch[w]
		s := sig(order[starts[g]])

		// Longest prefix the worker's stack already covers.
		lcp := 0
		if gs.lastSig != nil {
			for lcp < na && gs.lastSig[lcp] == s[lcp] {
				lcp++
			}
		}
		for k := lcp; k < na; k++ {
			prev := gs.levels[k]
			if s[k] == sigMissing {
				gs.levels[k+1] = prev // full candidate set on attribute k
				continue
			}
			cur := gs.own[k+1]
			cur.CopyFrom(prev)
			cur.And(ix.geqm[k][s[k]])
			gs.levels[k+1] = cur
		}
		if gs.lastSig == nil {
			gs.lastSig = make([]int32, na)
		}
		copy(gs.lastSig, s)

		cand := gs.levels[na]
		// The candidate set contains every group member (see file comment),
		// so |D(o)| is its cardinality minus the object itself.
		size := cand.Count() - 1
		for i := starts[g]; i < starts[g+1]; i++ {
			o := order[i]
			ct.DomSizes[o] = size
			switch {
			case size == 0:
				ct.Conds[o] = True()
			case limit >= 0 && size > limit:
				ct.Conds[o] = False()
				ct.PrunedByAlpha[o] = true
			default:
				ct.Conds[o] = buildConditionSkip(d, o, cand)
			}
		}
	})
}

// buildConditionSkip is buildCondition over a candidate set that still
// contains the object itself: the self bit is skipped during iteration
// instead of being cleared from the (group-shared, read-only) set.
func buildConditionSkip(d *dataset.Dataset, o int, cand *bitset.Set) *Condition {
	var clauses [][]Expr
	result := (*Condition)(nil)
	cand.ForEach(func(p int) bool {
		if p == o {
			return true
		}
		clause := buildClause(d, o, p)
		if clause == nil {
			result = False()
			return false
		}
		clauses = append(clauses, clause)
		return true
	})
	if result != nil {
		return result
	}
	return FromClauses(clauses)
}
