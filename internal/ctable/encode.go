package ctable

import "encoding/binary"

// AppendKey appends a compact, self-delimiting binary encoding of the
// expression to dst and returns the extended slice. The encoding is
// injective (distinct expressions yield distinct bytes) and stable across
// processes — it depends only on the expression's fields, never on map
// iteration order or pointer identity — which is what makes it usable as
// a building block for fingerprints (internal/prob's component keys
// concatenate these encodings in canonical order).
//
// Layout: one kind byte, then the left variable as two uvarints, then
// either the right variable (VarGTVar) or the constant as uvarints. The
// kind byte determines the field count, so concatenated encodings parse
// unambiguously without separators.
func (e Expr) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, uint64(uint32(e.X.Obj)))
	dst = binary.AppendUvarint(dst, uint64(uint32(e.X.Attr)))
	if e.Kind == VarGTVar {
		dst = binary.AppendUvarint(dst, uint64(uint32(e.Y.Obj)))
		dst = binary.AppendUvarint(dst, uint64(uint32(e.Y.Attr)))
		return dst
	}
	return binary.AppendUvarint(dst, uint64(uint32(e.C)))
}

// Compare totally orders expressions by (kind, left variable, right
// operand); Compare(o) == 0 exactly when the expressions are equal. It is
// the canonical order internal/prob sorts component clauses into before
// fingerprinting, so that structurally equal components produce equal
// keys regardless of the clause order they arrived in.
func (e Expr) Compare(o Expr) int {
	if e.Kind != o.Kind {
		return int(e.Kind) - int(o.Kind)
	}
	if e.X.Obj != o.X.Obj {
		return e.X.Obj - o.X.Obj
	}
	if e.X.Attr != o.X.Attr {
		return e.X.Attr - o.X.Attr
	}
	if e.Kind == VarGTVar {
		if e.Y.Obj != o.Y.Obj {
			return e.Y.Obj - o.Y.Obj
		}
		return e.Y.Attr - o.Y.Attr
	}
	return e.C - o.C
}
