package prob

import (
	"encoding/binary"
	"slices"

	"bayescrowd/internal/ctable"
)

// Canonical component order. Sort the expressions of each clause, then
// the clauses themselves, by the stable total order of
// ctable.Expr.Compare: the solver then branches on the same clause order
// whatever order a component's clauses arrived in, so its probability is
// a pure function of the component, bit for bit. The fingerprint is the
// concatenation of the sorted expressions' stable binary encodings
// (ctable.Expr.AppendKey) with a per-clause length prefix; the
// ApproxThreshold fallback seeds its estimator from it.

// realExpr reconstructs the caller-level expression of an interned one,
// using the solver's reverse variable table.
func (s *solver) realExpr(e cexpr) ctable.Expr {
	if e.kind == ctable.VarGTVar {
		return ctable.Expr{Kind: e.kind, X: s.vars[e.x], Y: s.vars[e.y]}
	}
	return ctable.Expr{Kind: e.kind, X: s.vars[e.x], C: int(e.c)}
}

func (s *solver) cmpExpr(a, b cexpr) int {
	return s.realExpr(a).Compare(s.realExpr(b))
}

func (s *solver) cmpClause(a, b []cexpr) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := s.cmpExpr(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// keyPrefix leads every fingerprint. The approx fallback hashes the
// whole key into its seed, so changing the prefix changes every
// estimate.
const keyPrefix = 'P'

// canonicalize sorts the component into canonical order in place. The
// clause slices are either simplify's per-evaluation scratch or
// newSolverGroups' fresh interned copies, never caller-owned conditions.
func (s *solver) canonicalize(comp [][]cexpr) {
	for _, cl := range comp {
		slices.SortFunc(cl, s.cmpExpr)
	}
	slices.SortFunc(comp, s.cmpClause)
}

// fingerprint returns the key of a canonicalized component. The key
// aliases solver scratch: it is valid until the next fingerprint call.
func (s *solver) fingerprint(comp [][]cexpr) []byte {
	key := append(s.keyBuf[:0], keyPrefix)
	for _, cl := range comp {
		key = binary.AppendUvarint(key, uint64(len(cl)))
		for _, e := range cl {
			key = s.realExpr(e).AppendKey(key)
		}
	}
	s.keyBuf = key
	return key
}

// componentVars returns the distinct variables of the component, in
// scratch reused across calls.
func (s *solver) componentVars(comp [][]cexpr) []ctable.Var {
	s.epoch++
	out := s.varsBuf[:0]
	visit := func(id int32) {
		if s.seenEp[id] != s.epoch {
			s.seenEp[id] = s.epoch
			out = append(out, s.vars[id])
		}
	}
	for _, cl := range comp {
		for _, e := range cl {
			visit(e.x)
			if e.y >= 0 {
				visit(e.y)
			}
		}
	}
	s.varsBuf = out
	return out
}
