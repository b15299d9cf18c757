package prob

import (
	"fmt"
	"sync"

	"bayescrowd/internal/ctable"
)

// The solver is the allocation-lean engine behind ADPLL. Public entry
// points convert a condition's expressions into a dense form first —
// variables interned to small integer ids, clauses to slices of cexpr —
// so the recursion works on array indexing instead of map hashing.

// cexpr is an interned expression. y < 0 marks a constant right operand.
type cexpr struct {
	kind ctable.Kind
	x, y int32
	c    int32
}

type solver struct {
	opt Options
	// Variable interning: an open-addressed, linear-probed hash table
	// mapping packed (Obj,Attr) keys to dense ids. Slots are epoch-stamped
	// so "clearing" the table between evaluations is one integer
	// increment, and probing is a few flat array reads — this replaced a
	// per-call map[ctable.Var]int32 whose hashing and clearing dominated
	// the small-condition profile of the UBS/HHS candidate loop.
	itabKeys  []uint64
	itabIDs   []int32
	itabEp    []uint64
	itabEpoch uint64
	itabLive  int
	// ids is the seed implementation's interning map, kept verbatim for
	// Options.LegacyEngine so the legacy path reproduces the seed's cost
	// profile exactly — the benchmark harness reports the compiled
	// engine's speedup as an in-run ratio against it, which is what makes
	// the CI regression gate portable across machines.
	ids   map[ctable.Var]int32
	dists [][]float64  // per var id
	vars  []ctable.Var // per var id: the real variable, for fingerprints
	// assign[v] is the branched value of var v, or -1.
	assign []int32
	// Scratch epochs avoid clearing per-var arrays on every recursion.
	epoch   int
	seenEp  []int // directProb / pickVar bookkeeping
	counts  []int
	ownerEp []int // components bookkeeping
	owner   []int
	// unitCl backs the augmenting unit clause of Pr(φ∧e) runs, so the
	// UBS/HHS inner loop never materialises an augmented clause buffer.
	unitCl [1]cexpr
	// ceArena and clArena back the interned clause set of one evaluation
	// (default engine): all literals live in one flat buffer and the
	// clause headers in one reused slice, so a Pr(φ∧e) probe interns its
	// condition with zero per-clause allocations. The legacy path keeps
	// the seed's per-clause copies. Carved slices are solver-owned
	// per-evaluation scratch, which is what lets canonicalize sort them
	// in place.
	ceArena []cexpr
	clArena [][]cexpr
	// keyBuf and varsBuf are fingerprint and componentVars scratch,
	// reused across the components of one evaluation.
	keyBuf  []byte
	varsBuf []ctable.Var
	// margNeed marks the variables the all-marginals pass must report
	// vectors for (set by the scan planner, false everywhere otherwise).
	margNeed []bool
	// satVars and satAssign are sampleSat scratch: the sorted variable
	// list of the residual and the dense working assignment, replacing the
	// per-sample maps the estimator used to allocate.
	satVars   []int32
	satAssign []int32
	// nApprox counts the connected components this evaluation resolved
	// through the approximate estimator (Options.ApproxThreshold); the
	// public entry points drain it into the evaluator's counter.
	nApprox int

	// Bitset clause-state engine scratch (state.go). componentProb
	// compiles the component into a flat literal arena once; the recursion
	// below it then touches only bit-words, counters and the undo trail —
	// no per-node clause rewriting, no per-node allocation.
	stExprs     []cexpr  // literal arena, clause-contiguous
	stClauseOff []int32  // clause c = stExprs[stClauseOff[c]:stClauseOff[c+1]]
	stClauseOf  []int32  // literal index -> owning clause
	stLive      []int32  // undecided-literal count per clause
	stSatW      []uint64 // clause-satisfied bit-words
	stDeadW     []uint64 // literal-decided-false bit-words
	stOcc       []int32  // CSR occurrence lists: literal indices per var
	stOccOff    []int32  // per var id: occurrence range start in stOcc
	stOccEnd    []int32  // per var id: occurrence range end in stOcc
	stTrail     []int32  // undo log: +ei+1 literal-dead, -(c+1) clause-sat
	stIdx       []int32  // stack-discipline arena for clause-index lists
	// Per-literal probability memos (state.go). A live literal's effective
	// probability is a pure function of its own variables' assignments, so
	// the value computed at one recursion node is bit-identical at every
	// other node with the same assignments: stProb0 caches the unassigned
	// form once per compile (-1 = unset), and stEffP caches the
	// half-assigned var-vs-var form keyed by the assigned side and that
	// variable's assignment version (stVarVer, bumped on every stAssign).
	stProb0  []float64 // per literal: probability under no assignment
	stEffP   []float64 // per literal: half-assigned memo value
	stEffVer []uint64  // per literal: stVarVer at memo time (^0 = unset)
	stEffX   []bool    // per literal: memo taken with the x side assigned
	stVarVer []uint64  // per var id: assignment version counter
}

// solverPool recycles solver scratch across evaluations. sync.Pool is
// concurrency-safe, so during a parallel fan-out each in-flight Prob call
// owns a private solver: per-worker scratch without locks, and the hot
// path stays allocation-lean even under contention.
var solverPool = sync.Pool{
	New: func() any { return &solver{} },
}

// newSolver acquires pooled scratch, interns the variables of the clause
// set and captures their distributions. Callers return the solver with
// release once the evaluation is done.
func newSolver(ev *Evaluator, clauses [][]ctable.Expr) (*solver, [][]cexpr) {
	return newSolverGroups(ev, [][][]ctable.Expr{clauses}, nil)
}

// newSolverGroups is newSolver over several clause groups plus an
// optional augmenting unit clause [*unit]. The groups are interned as one
// conjunction without materialising a combined condition — the unit
// clause lives in solver scratch — so Pr(φ∧e) runs (the UBS/HHS inner
// loop) and the component-scan's partial re-solves allocate no augmented
// clause buffer per candidate.
func newSolverGroups(ev *Evaluator, groups [][][]ctable.Expr, unit *ctable.Expr) (*solver, [][]cexpr) {
	s := solverPool.Get().(*solver)
	s.opt = ev.Opt
	s.dists = s.dists[:0]
	s.vars = s.vars[:0]
	s.nApprox = 0
	if s.opt.LegacyEngine {
		// Seed replica: the original map-based interning, cleared per
		// evaluation the way the seed's pooled solver did it.
		if s.ids == nil {
			//lint:ignore hotalloc deliberate seed-replica behavior: the LegacyEngine baseline must allocate the way the seed did
			s.ids = map[ctable.Var]int32{}
		}
		clear(s.ids)
	} else {
		// One increment invalidates every intern slot left over from
		// earlier evaluations; see grow for why epoch stamping makes that
		// sound.
		s.itabEpoch++
		s.itabLive = 0
		if len(s.itabKeys) == 0 {
			const initialSlots = 64
			s.itabKeys = make([]uint64, initialSlots)
			s.itabIDs = make([]int32, initialSlots)
			s.itabEp = make([]uint64, initialSlots)
		}
	}
	n, lits := 0, 0
	for _, g := range groups {
		n += len(g)
		for _, cl := range g {
			lits += len(cl)
		}
	}
	if unit != nil {
		n++
		lits++
	}
	var out [][]cexpr
	if s.opt.LegacyEngine {
		// Seed replica: one fresh slice per clause, as the original did.
		out = make([][]cexpr, 0, n)
		for _, g := range groups {
			for _, cl := range g {
				ce := make([]cexpr, len(cl))
				for k, e := range cl {
					ce[k] = s.intern(ev, e)
				}
				out = append(out, ce)
			}
		}
		if unit != nil {
			s.unitCl[0] = s.intern(ev, *unit)
			out = append(out, s.unitCl[:])
		}
	} else {
		// Arena carve: the buffers are pre-sized before any slice is
		// carved, so no append can reallocate under an aliasing clause.
		if cap(s.ceArena) < lits {
			s.ceArena = make([]cexpr, lits)
		} else {
			s.ceArena = s.ceArena[:lits]
		}
		if cap(s.clArena) < n {
			s.clArena = make([][]cexpr, n)
		} else {
			s.clArena = s.clArena[:n]
		}
		k, ci := 0, 0
		for _, g := range groups {
			for _, cl := range g {
				dst := s.ceArena[k : k+len(cl) : k+len(cl)]
				for j, e := range cl {
					dst[j] = s.intern(ev, e)
				}
				s.clArena[ci] = dst
				ci++
				k += len(cl)
			}
		}
		if unit != nil {
			s.ceArena[k] = s.intern(ev, *unit)
			s.clArena[ci] = s.ceArena[k : k+1 : k+1]
		}
		out = s.clArena
	}
	s.grow(len(s.dists))
	return s, out
}

// intern converts an expression to its dense form, assigning variable ids
// on first sight.
func (s *solver) intern(ev *Evaluator, e ctable.Expr) cexpr {
	switch e.Kind {
	case ctable.VarLTConst, ctable.VarGTConst:
		return cexpr{kind: e.Kind, x: s.internVar(ev, e.X), y: -1, c: int32(e.C)}
	case ctable.VarGTVar:
		return cexpr{kind: e.Kind, x: s.internVar(ev, e.X), y: s.internVar(ev, e.Y)}
	default:
		panic(fmt.Sprintf("prob: unknown expression kind %d", e.Kind))
	}
}

// packVar folds a variable into one intern-table key. Object and
// attribute indices are non-negative ints well inside 32 bits, so the
// packing is injective.
func packVar(v ctable.Var) uint64 {
	return uint64(uint32(v.Obj))<<32 | uint64(uint32(v.Attr))
}

// itabHash spreads a packed key across the table. Fibonacci multiply plus
// a fold of the high bits; the table masks the result to its size.
func itabHash(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return h ^ h>>33
}

func (s *solver) internVar(ev *Evaluator, v ctable.Var) int32 {
	if s.opt.LegacyEngine {
		if id, ok := s.ids[v]; ok {
			return id
		}
		id := int32(len(s.dists))
		s.ids[v] = id
		s.dists = append(s.dists, ev.dist(v))
		s.vars = append(s.vars, v)
		return id
	}
	key := packVar(v)
	mask := uint64(len(s.itabKeys) - 1)
	i := itabHash(key) & mask
	for {
		if s.itabEp[i] != s.itabEpoch {
			id := int32(len(s.dists))
			s.itabEp[i] = s.itabEpoch
			s.itabKeys[i] = key
			s.itabIDs[i] = id
			s.itabLive++
			s.dists = append(s.dists, ev.dist(v))
			s.vars = append(s.vars, v)
			if 4*s.itabLive >= 3*len(s.itabKeys) {
				s.itabGrow()
			}
			return id
		}
		if s.itabKeys[i] == key {
			return s.itabIDs[i]
		}
		i = (i + 1) & mask
	}
}

// varID returns the interned id of an already-interned variable.
func (s *solver) varID(v ctable.Var) (int32, bool) {
	if s.opt.LegacyEngine {
		id, ok := s.ids[v]
		return id, ok
	}
	key := packVar(v)
	mask := uint64(len(s.itabKeys) - 1)
	i := itabHash(key) & mask
	for {
		if s.itabEp[i] != s.itabEpoch {
			return 0, false
		}
		if s.itabKeys[i] == key {
			return s.itabIDs[i], true
		}
		i = (i + 1) & mask
	}
}

// itabGrow doubles the intern table and rehashes the live slots. Ids are
// stored in the slots, so growth preserves first-sight id order.
func (s *solver) itabGrow() {
	oldKeys, oldIDs, oldEp := s.itabKeys, s.itabIDs, s.itabEp
	n := 2 * len(oldKeys)
	s.itabKeys = make([]uint64, n)
	s.itabIDs = make([]int32, n)
	s.itabEp = make([]uint64, n)
	mask := uint64(n - 1)
	for j, ep := range oldEp {
		if ep != s.itabEpoch {
			continue
		}
		key := oldKeys[j]
		i := itabHash(key) & mask
		for s.itabEp[i] == s.itabEpoch {
			i = (i + 1) & mask
		}
		s.itabEp[i] = s.itabEpoch
		s.itabKeys[i] = key
		s.itabIDs[i] = oldIDs[j]
	}
}

// grow sizes the per-variable scratch for n interned variables. The epoch
// counter is deliberately preserved across reuse: every epoch-guarded
// lookup first increments s.epoch, so entries left over from earlier
// evaluations (all stamped with strictly older epochs) can never alias a
// fresh one — which is what makes recycling safe without clearing.
func (s *solver) grow(n int) {
	if cap(s.assign) < n {
		s.assign = make([]int32, n)
		s.seenEp = make([]int, n)
		s.counts = make([]int, n)
		s.ownerEp = make([]int, n)
		s.owner = make([]int, n)
		s.margNeed = make([]bool, n)
		s.satAssign = make([]int32, n)
		s.stOccOff = make([]int32, n)
		s.stOccEnd = make([]int32, n)
		s.stVarVer = make([]uint64, n)
	} else {
		s.assign = s.assign[:n]
		s.seenEp = s.seenEp[:n]
		s.counts = s.counts[:n]
		s.ownerEp = s.ownerEp[:n]
		s.owner = s.owner[:n]
		s.margNeed = s.margNeed[:n]
		s.satAssign = s.satAssign[:n]
		s.stOccOff = s.stOccOff[:n]
		s.stOccEnd = s.stOccEnd[:n]
		s.stVarVer = s.stVarVer[:n]
	}
	for i := range s.assign {
		s.assign[i] = -1
		s.margNeed[i] = false
	}
}

// release returns the solver's scratch to the pool, dropping the captured
// distribution references so pooled scratch never pins caller data.
func (s *solver) release() {
	for i := range s.dists {
		s.dists[i] = nil
	}
	solverPool.Put(s)
}

// exprProb is ExprProb over interned expressions and (possibly branched)
// distributions.
func (s *solver) exprProb(e cexpr) float64 {
	dx := s.dists[e.x]
	switch e.kind {
	case ctable.VarLTConst:
		p := 0.0
		for v := 0; v < len(dx) && v < int(e.c); v++ {
			p += dx[v]
		}
		return p
	case ctable.VarGTConst:
		p := 0.0
		// Hoist the v >= 0 clamp out of the loop: negative constants
		// (possible only for never-built degenerate expressions) just
		// start the scan at 0.
		start := int(e.c) + 1
		if start < 0 {
			start = 0
		}
		for v := start; v < len(dx); v++ {
			p += dx[v]
		}
		return p
	default: // VarGTVar
		dy := s.dists[e.y]
		p, cdf := 0.0, 0.0
		for a := 0; a < len(dx); a++ {
			if a-1 >= 0 && a-1 < len(dy) {
				cdf += dy[a-1]
			}
			p += dx[a] * cdf
		}
		return p
	}
}

// substitute applies the current assignment to an expression.
func (s *solver) substitute(e cexpr) (out cexpr, value, decided bool) {
	switch e.kind {
	case ctable.VarLTConst:
		if x := s.assign[e.x]; x >= 0 {
			return e, x < e.c, true
		}
		return e, false, false
	case ctable.VarGTConst:
		if x := s.assign[e.x]; x >= 0 {
			return e, x > e.c, true
		}
		return e, false, false
	default: // VarGTVar
		x, y := s.assign[e.x], s.assign[e.y]
		switch {
		case x >= 0 && y >= 0:
			return e, x > y, true
		case x >= 0:
			return cexpr{kind: ctable.VarLTConst, x: e.y, y: -1, c: x}, false, false
		case y >= 0:
			return cexpr{kind: ctable.VarGTConst, x: e.x, y: -1, c: y}, false, false
		default:
			return e, false, false
		}
	}
}

// simplify rewrites clauses under the assignment into dst (which is
// reused storage); decided reports a collapsed formula.
func (s *solver) simplify(clauses [][]cexpr) (out [][]cexpr, value, decided bool) {
	out = make([][]cexpr, 0, len(clauses))
	for _, cl := range clauses {
		kept := make([]cexpr, 0, len(cl))
		satisfied := false
		for _, e := range cl {
			sub, val, dec := s.substitute(e)
			if dec {
				if val {
					satisfied = true
					break
				}
				continue
			}
			kept = append(kept, sub)
		}
		if satisfied {
			continue
		}
		if len(kept) == 0 {
			return nil, false, true
		}
		out = append(out, kept)
	}
	if len(out) == 0 {
		return nil, true, true
	}
	return out, false, false
}

// adpllTop is the ADPLL entry point: the same mathematics as adpll, but
// connected components are solved in the canonical clause order of
// canonicalize, so a component's probability is a pure function of the
// component, bit for bit, whatever clause order it arrived in.
func (s *solver) adpllTop(clauses [][]cexpr) float64 {
	residual := clauses
	if s.opt.LegacyEngine {
		var value, decided bool
		residual, value, decided = s.simplify(clauses)
		if decided {
			if value {
				return 1
			}
			return 0
		}
	} else {
		// adpllTop is only entered on a fresh solver, so the assignment is
		// empty and simplify would copy the clause set unchanged — skip the
		// copy and handle the collapse cases directly. residual then
		// aliases the interned arena, which is per-evaluation solver
		// scratch exactly like simplify's output was.
		if len(clauses) == 0 {
			return 1
		}
		for _, cl := range clauses {
			if len(cl) == 0 {
				return 0
			}
		}
	}
	if p, ok := s.directProb(residual); ok {
		return p
	}
	if s.opt.NoComponents {
		if s.opt.LegacyEngine {
			return s.branch(residual, s.pickVar(residual))
		}
		return s.stSolve(residual)
	}
	comps := s.components(residual)
	p := 1.0
	for _, comp := range comps {
		p *= s.componentProb(comp)
		if p == 0 {
			return 0
		}
	}
	return p
}

// componentProb returns Pr(comp) for one connected component.
//
// Branched components are solved by the compiled bitset clause-state
// engine (state.go) unless Options.LegacyEngine re-selects the original
// clause-rewriting recursion; the two are bit-identical. When
// Options.ApproxThreshold is set and the component holds more distinct
// variables than the threshold, the exact count is replaced by the
// generalised ApproxCount estimator, seeded from the component's
// canonical fingerprint — the decision and the estimate are pure
// functions of the component, so results stay deterministic at any
// worker count and schedule.
func (s *solver) componentProb(comp [][]cexpr) float64 {
	if p, ok := s.directProb(comp); ok {
		return p
	}
	s.canonicalize(comp)
	switch {
	case s.opt.ApproxThreshold > 0 && len(s.componentVars(comp)) > s.opt.ApproxThreshold:
		return s.approxComponent(comp)
	case s.opt.LegacyEngine:
		return s.branch(comp, s.pickVar(comp))
	default:
		return s.stSolve(comp)
	}
}

// adpll is Algorithm 3 over interned clauses.
func (s *solver) adpll(clauses [][]cexpr) float64 {
	residual, value, decided := s.simplify(clauses)
	if decided {
		if value {
			return 1
		}
		return 0
	}

	// The direct rule over the whole residual is the common case after
	// branching (clauses become pairwise variable-disjoint), so try it
	// before paying for component analysis.
	if p, ok := s.directProb(residual); ok {
		return p
	}
	if s.opt.NoComponents {
		return s.branch(residual, s.pickVar(residual))
	}

	comps := s.components(residual)
	if len(comps) == 1 {
		return s.branch(residual, s.pickVar(residual))
	}
	p := 1.0
	for _, comp := range comps {
		if direct, ok := s.directProb(comp); ok {
			p *= direct
			continue
		}
		p *= s.branch(comp, s.pickVar(comp))
		if p == 0 {
			return 0
		}
	}
	return p
}

// branch enumerates the values of var id v weighted by its distribution.
func (s *solver) branch(clauses [][]cexpr, v int32) float64 {
	total := 0.0
	for a, pa := range s.dists[v] {
		if pa == 0 {
			continue
		}
		s.assign[v] = int32(a)
		total += pa * s.adpll(clauses)
	}
	s.assign[v] = -1
	return total
}

// pickVar returns the most frequent variable id of the clause set (first
// one under the BranchFirstVar ablation).
func (s *solver) pickVar(clauses [][]cexpr) int32 {
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
	for _, cl := range clauses {
		for _, e := range cl {
			if s.opt.BranchFirstVar {
				return e.x
			}
			visit(e.x)
			if e.y >= 0 {
				visit(e.y)
			}
		}
	}
	return best
}

// directProb applies the independent-conjunction and general-disjunction
// rules when every variable occurs exactly once across the clause set.
func (s *solver) directProb(clauses [][]cexpr) (p float64, ok bool) {
	s.epoch++
	for _, cl := range clauses {
		for _, e := range cl {
			if s.seenEp[e.x] == s.epoch {
				return 0, false
			}
			s.seenEp[e.x] = s.epoch
			if e.y >= 0 {
				if s.seenEp[e.y] == s.epoch {
					return 0, false
				}
				s.seenEp[e.y] = s.epoch
			}
		}
	}
	p = 1.0
	for _, cl := range clauses {
		qAllFalse := 1.0
		for _, e := range cl {
			qAllFalse *= 1 - s.exprProb(e)
		}
		p *= 1 - qAllFalse
	}
	return p, true
}

// components groups clauses into connected components of the clause-
// variable incidence graph using an epoch-versioned owner table.
func (s *solver) components(clauses [][]cexpr) [][][]cexpr {
	parent := make([]int, len(clauses))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	s.epoch++
	claim := func(v int32, clause int) {
		if s.ownerEp[v] == s.epoch {
			ra, rb := find(s.owner[v]), find(clause)
			if ra != rb {
				parent[ra] = rb
			}
			return
		}
		s.ownerEp[v] = s.epoch
		s.owner[v] = clause
	}
	for i, cl := range clauses {
		for _, e := range cl {
			claim(e.x, i)
			if e.y >= 0 {
				claim(e.y, i)
			}
		}
	}

	// Single component fast path.
	root := find(0)
	single := true
	for i := 1; i < len(clauses); i++ {
		if find(i) != root {
			single = false
			break
		}
	}
	if single {
		return [][][]cexpr{clauses}
	}

	// Compact the root ids into group indices without map hashing.
	groupOf := make([]int, len(clauses))
	nGroups := 0
	for i := range clauses {
		r := find(i)
		if r == i {
			groupOf[i] = nGroups
			nGroups++
		}
	}
	out := make([][][]cexpr, nGroups)
	for i, cl := range clauses {
		g := groupOf[find(i)]
		out[g] = append(out[g], cl)
	}
	return out
}
