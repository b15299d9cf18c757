package core

import (
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/prob"
)

// Absorption is the shared knowledge-absorption path: one crowd answer
// folded into the Knowledge, the variables it touched marked for
// re-simplification, and — for constant comparisons under inference —
// the variable's effective distribution renormalised to its narrowed
// interval. The batch crowd phase and the streaming crowd loop both go
// through it, so an answer means exactly the same thing in either mode.
//
// The caller owns the surrounding single-writer discipline: Absorb
// mutates Know and Eff, so it must only run in the sequential gaps
// between Pr(φ) fan-outs.
type Absorption struct {
	// Know accumulates the answers.
	Know *ctable.Knowledge
	// Base holds the immutable prior distributions; Eff receives their
	// renormalised forms (conditionDist allocates a fresh slice, so Base
	// entries are never written through Eff).
	Base prob.Dists
	Eff  prob.Dists
	// Touched collects every variable an absorbed answer mentioned —
	// the conditions to re-simplify. DistChanged, when non-nil, collects
	// the subset whose effective distribution was renormalised — the
	// probabilities to recompute even where the condition's structure
	// did not change.
	Touched     map[ctable.Var]bool
	DistChanged map[ctable.Var]bool

	buf []ctable.Var
}

// Absorb folds one answer into the knowledge and marks the variables it
// touched. Only constant-comparison answers narrow a variable's
// interval (and hence its distribution); var-vs-var answers record a
// pairwise relation and leave distributions untouched. Errors —
// conflicts, forgotten variables — pass through from Knowledge.Absorb
// with nothing marked.
func (ab *Absorption) Absorb(e ctable.Expr, rel ctable.Rel) error {
	if err := ab.Know.Absorb(e, rel); err != nil {
		return err
	}
	ab.buf = e.Vars(ab.buf[:0])
	for _, v := range ab.buf {
		ab.Touched[v] = true
	}
	if e.Kind != ctable.VarGTVar && !ab.Know.NoInference {
		v := e.X
		lo, hi := ab.Know.Bounds(v)
		ab.Eff[v] = conditionDist(ab.Base[v], lo, hi)
		if ab.DistChanged != nil {
			ab.DistChanged[v] = true
		}
	}
	return nil
}
