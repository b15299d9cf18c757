package prob

import "bayescrowd/internal/ctable"

// Compiled bitset clause-state engine for the ADPLL hot loop.
//
// The original recursion (solver.go, kept behind Options.LegacyEngine)
// rewrites the clause set at every node: simplify allocates a fresh
// [][]cexpr residual, copies the surviving literals — substituting
// assigned variables into constant forms — and the component split
// allocates again. Those per-node allocations are the dominant cost of
// the selection phase, where the UBS/HHS candidate loop solves tens of
// thousands of small components per round.
//
// This engine compiles a component once per solve into flat, reusable
// solver scratch:
//
//   - a literal arena (stExprs) with per-clause offsets, in the canonical
//     order canonicalize established;
//   - liveness as bit-words — one bit per clause ("satisfied, drop it")
//     and one per literal ("decided false, skip it") — plus a live-literal
//     counter per clause that detects empty clauses eagerly;
//   - CSR occurrence lists mapping each variable to the literals that
//     mention it, so branching on v touches exactly v's literals instead
//     of rescanning the clause set;
//   - an undo trail: every bit set while descending is recorded and
//     reverted before the next branch value, DPLL-style.
//
// Substitution is evaluated dynamically instead of by rewriting: a
// var-vs-var literal with one side assigned is *read* as the constant
// comparison the legacy engine would have rewritten it to (effExprProb,
// effective-variable visits). Every probability sum runs over the same
// distributions in the same order as the legacy engine's rewritten
// forms, every clause and literal is visited in the same sequence, and
// the branch/decomposition arithmetic is mirrored statement for
// statement — so the two engines return bit-identical floats
// (state_equiv_test.go pins this).
//
// Recursion-local clause-index lists (residuals, component groups) are
// carved from a stack-disciplined int32 arena (stIdx): a frame records
// the arena length on entry and truncates back on exit, so steady-state
// recursion allocates nothing. Slices carved before a reallocation keep
// pointing into the old backing array; that is sound because a carved
// list is append-filled only through its own capped slice and read-only
// afterwards.

// stSolve compiles a clause set — a canonicalized connected component,
// or the whole residual under Options.NoComponents — under an empty
// assignment and solves it. Mirrors the legacy step
// branch(comp, pickVar(comp)).
func (s *solver) stSolve(comp [][]cexpr) float64 {
	s.stCompile(comp)
	s.stTrail = s.stTrail[:0]
	s.stIdx = s.stIdx[:0]
	for c := range comp {
		s.stIdx = append(s.stIdx, int32(c))
	}
	clauses := s.stIdx[:len(comp)]
	p := s.stBranch(clauses, s.stPickVar(clauses))
	s.stIdx = s.stIdx[:0]
	return p
}

// stCompile loads the component into the arena and resets the liveness
// state. The clause and literal order of comp is preserved exactly.
func (s *solver) stCompile(comp [][]cexpr) {
	s.stExprs = s.stExprs[:0]
	s.stClauseOff = s.stClauseOff[:0]
	s.stClauseOf = s.stClauseOf[:0]
	s.stLive = s.stLive[:0]
	for c, cl := range comp {
		s.stClauseOff = append(s.stClauseOff, int32(len(s.stExprs)))
		for _, e := range cl {
			s.stExprs = append(s.stExprs, e)
			s.stClauseOf = append(s.stClauseOf, int32(c))
		}
		s.stLive = append(s.stLive, int32(len(cl)))
	}
	nLit := len(s.stExprs)
	s.stClauseOff = append(s.stClauseOff, int32(nLit))

	s.stSatW = resizeClearWords(s.stSatW, (len(comp)+63)/64)
	s.stDeadW = resizeClearWords(s.stDeadW, (nLit+63)/64)

	// Literal probability memos: the unassigned form is unset (-1) until
	// first use, the half-assigned slots are invalidated by the version
	// sentinel (stVarVer never reaches ^0). stEffP/stEffX need no clearing
	// — stEffVer gates them.
	s.stProb0 = resizeFillFloats(s.stProb0, nLit, -1)
	s.stEffVer = resizeFillWords(s.stEffVer, nLit, ^uint64(0))
	if cap(s.stEffP) < nLit {
		s.stEffP = make([]float64, nLit)
		s.stEffX = make([]bool, nLit)
	} else {
		s.stEffP = s.stEffP[:nLit]
		s.stEffX = s.stEffX[:nLit]
	}

	// Occurrence lists in CSR form. stOccOff doubles as the counting
	// array during the first pass; the prefix sum then turns counts into
	// range starts, and the fill pass advances stOccEnd to the range ends.
	nv := len(s.dists)
	for v := 0; v < nv; v++ {
		s.stOccOff[v] = 0
	}
	slots := 0
	for _, e := range s.stExprs {
		s.stOccOff[e.x]++
		slots++
		if e.y >= 0 {
			s.stOccOff[e.y]++
			slots++
		}
	}
	if cap(s.stOcc) < slots {
		s.stOcc = make([]int32, slots)
	} else {
		s.stOcc = s.stOcc[:slots]
	}
	off := int32(0)
	for v := 0; v < nv; v++ {
		cnt := s.stOccOff[v]
		s.stOccOff[v] = off
		s.stOccEnd[v] = off
		off += cnt
	}
	for ei, e := range s.stExprs {
		s.stOcc[s.stOccEnd[e.x]] = int32(ei)
		s.stOccEnd[e.x]++
		if e.y >= 0 {
			s.stOcc[s.stOccEnd[e.y]] = int32(ei)
			s.stOccEnd[e.y]++
		}
	}
}

func resizeClearWords(w []uint64, n int) []uint64 {
	if cap(w) < n {
		return make([]uint64, n)
	}
	w = w[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

func resizeFillWords(w []uint64, n int, v uint64) []uint64 {
	if cap(w) < n {
		w = make([]uint64, n)
	} else {
		w = w[:n]
	}
	for i := range w {
		w[i] = v
	}
	return w
}

func resizeFillFloats(w []float64, n int, v float64) []float64 {
	if cap(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	for i := range w {
		w[i] = v
	}
	return w
}

func (s *solver) stClauseSat(c int32) bool {
	return s.stSatW[c>>6]&(1<<uint(c&63)) != 0
}

func (s *solver) stLitDead(ei int32) bool {
	return s.stDeadW[ei>>6]&(1<<uint(ei&63)) != 0
}

// stAssign applies v=a to the state: every live literal mentioning v that
// the assignment decides either satisfies its clause (sat bit) or dies
// (dead bit, live counter). dead reports that some clause ran out of live
// literals — the subformula is false under this branch, exactly the case
// the legacy engine detects as an empty clause in simplify. All mutations
// are trailed for stRewind.
func (s *solver) stAssign(v, a int32) (dead bool) {
	s.assign[v] = a
	s.stVarVer[v]++
	for k := s.stOccOff[v]; k < s.stOccEnd[v]; k++ {
		ei := s.stOcc[k]
		c := s.stClauseOf[ei]
		if s.stClauseSat(c) || s.stLitDead(ei) {
			continue
		}
		e := s.stExprs[ei]
		var val, decided bool
		switch e.kind {
		case ctable.VarLTConst:
			val, decided = a < e.c, true
		case ctable.VarGTConst:
			val, decided = a > e.c, true
		default: // VarGTVar: decided once both sides are assigned
			if e.x == v {
				if y := s.assign[e.y]; y >= 0 {
					val, decided = a > y, true
				}
			} else if x := s.assign[e.x]; x >= 0 {
				val, decided = x > a, true
			}
		}
		if !decided {
			continue
		}
		if val {
			s.stSatW[c>>6] |= 1 << uint(c&63)
			s.stTrail = append(s.stTrail, -(c + 1))
		} else {
			s.stDeadW[ei>>6] |= 1 << uint(ei&63)
			s.stTrail = append(s.stTrail, ei+1)
			s.stLive[c]--
			if s.stLive[c] == 0 {
				dead = true
			}
		}
	}
	return dead
}

// stRewind reverts the trail back to mark.
func (s *solver) stRewind(mark int) {
	for i := len(s.stTrail) - 1; i >= mark; i-- {
		u := s.stTrail[i]
		if u > 0 {
			ei := u - 1
			s.stDeadW[ei>>6] &^= 1 << uint(ei&63)
			s.stLive[s.stClauseOf[ei]]++
		} else {
			c := -u - 1
			s.stSatW[c>>6] &^= 1 << uint(c&63)
		}
	}
	s.stTrail = s.stTrail[:mark]
}

// effExprProb reads a live literal as the expression the legacy engine's
// substitution would have rewritten it to, and computes its probability
// with the same summation. A live constant literal always has its
// variable unassigned (assignment would have decided it), and a live
// var-vs-var literal has at most one side assigned.
func (s *solver) effExprProb(e cexpr) float64 {
	if e.kind == ctable.VarGTVar {
		if x := s.assign[e.x]; x >= 0 {
			// Rewritten form: e.y < x (VarLTConst).
			d := s.dists[e.y]
			p := 0.0
			for v := 0; v < len(d) && v < int(x); v++ {
				p += d[v]
			}
			return p
		}
		if y := s.assign[e.y]; y >= 0 {
			// Rewritten form: e.x > y (VarGTConst).
			d := s.dists[e.x]
			p := 0.0
			start := int(y) + 1
			if start < 0 {
				start = 0
			}
			for v := start; v < len(d); v++ {
				p += d[v]
			}
			return p
		}
	}
	return s.exprProb(e)
}

// stVisitEff calls fn for each effective (unassigned) variable of a live
// literal, in the order the legacy engine's rewritten form would expose
// them: the sole unassigned side of a half-assigned var-vs-var literal,
// else x then y.
func (s *solver) stVisitEff(e cexpr, fn func(v int32)) {
	if e.kind == ctable.VarGTVar {
		if s.assign[e.x] >= 0 {
			fn(e.y)
			return
		}
		if s.assign[e.y] >= 0 {
			fn(e.x)
			return
		}
		fn(e.x)
		fn(e.y)
		return
	}
	fn(e.x)
}

// stAdpll mirrors the legacy adpll over a clause-index list, truncating
// the arena allocations of its frame on exit.
func (s *solver) stAdpll(clauses []int32) float64 {
	base := len(s.stIdx)
	p := s.stAdpllInner(clauses)
	s.stIdx = s.stIdx[:base]
	return p
}

func (s *solver) stAdpllInner(clauses []int32) float64 {
	// Residual = the clauses not yet satisfied; an emptied clause was
	// already detected by stAssign, so reaching here means none is empty.
	rbase := len(s.stIdx)
	for _, c := range clauses {
		if !s.stClauseSat(c) {
			s.stIdx = append(s.stIdx, c)
		}
	}
	residual := s.stIdx[rbase:len(s.stIdx)]
	if len(residual) == 0 {
		return 1
	}

	if p, ok := s.stDirectProb(residual); ok {
		return p
	}
	if s.opt.NoComponents {
		return s.stBranch(residual, s.stPickVar(residual))
	}

	// A one-clause residual is trivially a single component; skip the
	// union-find (same branch decision, same arithmetic).
	if len(residual) == 1 {
		return s.stBranch(residual, s.stPickVar(residual))
	}
	comps, single := s.stComponents(residual)
	if single {
		return s.stBranch(residual, s.stPickVar(residual))
	}
	p := 1.0
	for _, comp := range comps {
		if direct, ok := s.stDirectProb(comp); ok {
			p *= direct
			continue
		}
		p *= s.stBranch(comp, s.stPickVar(comp))
		if p == 0 {
			return 0
		}
	}
	return p
}

// stBranch enumerates the values of var id v weighted by its
// distribution, assigning through the trail.
func (s *solver) stBranch(clauses []int32, v int32) float64 {
	total := 0.0
	for a, pa := range s.dists[v] {
		if pa == 0 {
			continue
		}
		mark := len(s.stTrail)
		if dead := s.stAssign(v, int32(a)); !dead {
			total += pa * s.stAdpll(clauses)
		}
		s.stRewind(mark)
		s.assign[v] = -1
	}
	return total
}

// stPickVar mirrors pickVar over live literals and effective variables.
func (s *solver) stPickVar(clauses []int32) int32 {
	s.epoch++
	best, bestCount := int32(-1), 0
	visit := func(v int32) {
		if s.seenEp[v] != s.epoch {
			s.seenEp[v] = s.epoch
			s.counts[v] = 0
		}
		s.counts[v]++
		if s.counts[v] > bestCount {
			best, bestCount = v, s.counts[v]
		}
	}
	for _, c := range clauses {
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			e := s.stExprs[ei]
			if s.opt.BranchFirstVar {
				// The legacy engine returns the rewritten literal's x:
				// the sole unassigned side of a half-assigned var-vs-var
				// literal, else the literal's own x.
				if e.kind == ctable.VarGTVar && s.assign[e.x] >= 0 {
					return e.y
				}
				return e.x
			}
			s.stVisitEff(e, visit)
		}
	}
	return best
}

// stProbUn returns literal ei's probability in its unassigned form,
// computing exprProb once per compile. exprProb is a pure function of the
// literal and the distributions, so the cached float is the identical
// value a recomputation would produce.
func (s *solver) stProbUn(ei int32, e cexpr) float64 {
	if p := s.stProb0[ei]; p >= 0 {
		return p
	}
	p := s.exprProb(e)
	s.stProb0[ei] = p
	return p
}

// stEffHalf returns the probability of a half-assigned var-vs-var literal,
// memoized under the assigned side's assignment version: while that
// variable keeps its branched value the effective form — and therefore the
// summation effExprProb runs — is unchanged, so the cached float is
// bit-identical to a recomputation. Any re-assignment bumps stVarVer and
// misses the memo.
func (s *solver) stEffHalf(ei int32, e cexpr, xAssigned bool) float64 {
	v := e.x
	if !xAssigned {
		v = e.y
	}
	if s.stEffVer[ei] == s.stVarVer[v] && s.stEffX[ei] == xAssigned {
		return s.stEffP[ei]
	}
	p := s.effExprProb(e)
	s.stEffVer[ei] = s.stVarVer[v]
	s.stEffX[ei] = xAssigned
	s.stEffP[ei] = p
	return p
}

// stDirectProb mirrors directProb: if every effective variable occurs
// exactly once across the live literals, the probability follows from the
// independent-conjunction and general-disjunction rules, computed in the
// same clause and literal order as the legacy engine. The repeated-
// variable check and the product run as one fused pass — the success
// path multiplies the same factors in the same order as the legacy
// two-pass form, and a detected repeat discards the partial product in
// both. Factors come from the per-literal memos (stProbUn, stEffHalf).
func (s *solver) stDirectProb(residual []int32) (float64, bool) {
	s.epoch++
	p := 1.0
	for _, c := range residual {
		qAllFalse := 1.0
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			e := s.stExprs[ei]
			if e.kind == ctable.VarGTVar {
				if s.assign[e.x] >= 0 {
					if s.seenEp[e.y] == s.epoch {
						return 0, false
					}
					s.seenEp[e.y] = s.epoch
					qAllFalse *= 1 - s.stEffHalf(ei, e, true)
					continue
				}
				if s.assign[e.y] >= 0 {
					if s.seenEp[e.x] == s.epoch {
						return 0, false
					}
					s.seenEp[e.x] = s.epoch
					qAllFalse *= 1 - s.stEffHalf(ei, e, false)
					continue
				}
				if s.seenEp[e.x] == s.epoch || s.seenEp[e.y] == s.epoch {
					return 0, false
				}
				s.seenEp[e.x] = s.epoch
				s.seenEp[e.y] = s.epoch
				qAllFalse *= 1 - s.stProbUn(ei, e)
				continue
			}
			if s.seenEp[e.x] == s.epoch {
				return 0, false
			}
			s.seenEp[e.x] = s.epoch
			qAllFalse *= 1 - s.stProbUn(ei, e)
		}
		p *= 1 - qAllFalse
	}
	return p, true
}

// stComponents mirrors components over a clause-index list: union-find
// over residual positions claimed through effective variables, with the
// single-component fast path reported as (nil, true). Group order is the
// root-appearance order of the residual scan and members keep residual
// order, matching the legacy engine. The parent, group and bucket tables
// are carved from the arena; the caller's stAdpll frame reclaims them.
func (s *solver) stComponents(residual []int32) ([][]int32, bool) {
	n := len(residual)
	pbase := len(s.stIdx)
	for i := 0; i < n; i++ {
		s.stIdx = append(s.stIdx, int32(i))
	}
	parent := s.stIdx[pbase:len(s.stIdx)]
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	s.epoch++
	var pos int32
	claim := func(v int32) {
		if s.ownerEp[v] == s.epoch {
			ra, rb := find(int32(s.owner[v])), find(pos)
			if ra != rb {
				parent[ra] = rb
			}
			return
		}
		s.ownerEp[v] = s.epoch
		s.owner[v] = int(pos)
	}
	for i, c := range residual {
		pos = int32(i)
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			s.stVisitEff(s.stExprs[ei], claim)
		}
	}

	root := find(0)
	single := true
	for i := int32(1); i < int32(n); i++ {
		if find(i) != root {
			single = false
			break
		}
	}
	if single {
		s.stIdx = s.stIdx[:pbase]
		return nil, true
	}

	gbase := len(s.stIdx)
	for i := 0; i < n; i++ {
		s.stIdx = append(s.stIdx, 0)
	}
	groupOf := s.stIdx[gbase:len(s.stIdx)]
	nG := int32(0)
	for i := int32(0); i < int32(n); i++ {
		if find(i) == i {
			groupOf[i] = nG
			nG++
		}
	}

	szbase := len(s.stIdx)
	for g := int32(0); g < nG; g++ {
		s.stIdx = append(s.stIdx, 0)
	}
	sizes := s.stIdx[szbase:len(s.stIdx)]
	for i := int32(0); i < int32(n); i++ {
		sizes[groupOf[find(i)]]++
	}
	bbase := len(s.stIdx)
	for i := 0; i < n; i++ {
		s.stIdx = append(s.stIdx, 0)
	}
	block := s.stIdx[bbase:len(s.stIdx)]
	groups := make([][]int32, nG)
	off := int32(0)
	for g := range groups {
		end := off + sizes[g]
		groups[g] = block[off:off:end]
		off = end
	}
	for i, c := range residual {
		g := groupOf[find(int32(i))]
		groups[g] = append(groups[g], c)
	}
	return groups, false
}
