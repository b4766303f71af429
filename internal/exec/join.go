package exec

import (
	"fmt"
	"hash/maphash"
	"math"

	"datalaws/internal/expr"
)

// HashJoin is the inner equi-join: its ON condition must be a conjunction
// of equalities, each comparing one left column with one right column,
// under the join-key rule. It builds on the right input and emits each left
// row's matches in build order. It lowers to VecHashJoin.
type HashJoin struct {
	Left, Right Node
	On          expr.Expr
}

// Columns implements Node.
func (j *HashJoin) Columns() []string {
	return append(append([]string{}, j.Left.Columns()...), j.Right.Columns()...)
}

// The join-key rule, shared by VecHashJoin and the row reference: a pair
// of keys joins exactly when = in WHERE would be TRUE. NULL never joins;
// numbers join numbers by expr.Compare (INTs as int64, an INT meets a
// DOUBLE at the DOUBLE's value, -0 meets +0, NaN meets NaN); strings join
// strings and booleans booleans. Numbers hash by float64 value with the
// zeros and the NaNs folded, so every equal pair shares a bucket; the hash
// only finds candidates, and joinKeyEqual confirms them (2^53+1 shares
// 2^53's bucket).
func joinKeyHash(h uint64, v expr.Value) (uint64, bool) {
	var x uint64
	switch v.K {
	case expr.KindNull:
		return 0, false
	case expr.KindString:
		x = maphash.String(joinSeed, v.S)
	case expr.KindBool:
		if v.B {
			x = 1
		}
	default:
		f, _ := v.AsFloat()
		x = joinNumBits(f)
	}
	return joinMix(h, x), true
}

var joinSeed = maphash.MakeSeed()

// joinNumBits is the hash input of a number: its float64 bits, with the
// zeros and the NaNs folded.
func joinNumBits(f float64) uint64 {
	switch {
	case f != f:
		return 1
	case f != 0:
		return math.Float64bits(f)
	}
	return 0
}

// joinMix folds one key's hash input x into the running hash h.
func joinMix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// joinKeyEqual reports whether two key values join.
func joinKeyEqual(a, b expr.Value) bool {
	if a.K != b.K && (a.K > expr.KindFloat || b.K > expr.KindFloat) {
		return false // a string or a boolean against another kind
	}
	c, err := expr.Compare(a, b)
	return err == nil && c == 0
}

// hashJoinKeys hashes the join keys of rows under joinKeyHash's rule, a
// key column at a time: hs[p] is the hash of row rows[p]'s keys (vecs[k]
// for k in keys), and null[p] is set when any of them is NULL.
func hashJoinKeys(vecs []*Vector, keys, rows []int, hs []uint64, null []bool) {
	clear(hs)
	clear(null)
	for _, k := range keys {
		v := vecs[k]
		switch v.Kind {
		case expr.KindInt:
			for p, i := range rows {
				hs[p] = joinMix(hs[p], joinNumBits(float64(v.I[i])))
			}
		case expr.KindFloat:
			for p, i := range rows {
				hs[p] = joinMix(hs[p], joinNumBits(v.F[i]))
			}
		case expr.KindString:
			for p, i := range rows {
				hs[p] = joinMix(hs[p], maphash.String(joinSeed, v.S[i]))
			}
		default: // booleans, all-NULL and mixed-kind vectors
			for p, i := range rows {
				h, ok := joinKeyHash(hs[p], v.Value(i))
				hs[p], null[p] = h, null[p] || !ok
			}
			continue
		}
		if v.Null != nil {
			for p, i := range rows {
				null[p] = null[p] || v.Null[i]
			}
		}
	}
}

// joinIndex is a join's build-side hash index: head maps a key hash to 1 +
// its first build row, and next chains the rest (-1 ends), in build order;
// rows with a NULL key are in no chain.
type joinIndex struct {
	head map[uint64]int32
	next []int32
}

// newJoinIndex indexes build rows by their key hashes hs; rows whose null
// entry is set stay out of every chain.
func newJoinIndex(hs []uint64, null []bool) joinIndex {
	ix := joinIndex{head: make(map[uint64]int32, len(hs)), next: make([]int32, len(hs))}
	for r := len(hs) - 1; r >= 0; r-- {
		if !null[r] {
			h := hs[r]
			ix.next[r], ix.head[h] = ix.head[h]-1, int32(r)+1
		}
	}
	return ix
}

// extractEquiKeys decomposes an ON conjunction into aligned left/right
// column index lists.
func extractEquiKeys(on expr.Expr, lcols, rcols []string) (left, right []int, err error) {
	conjuncts := splitConjuncts(on)
	if len(conjuncts) == 0 {
		return nil, nil, fmt.Errorf("exec: empty join condition")
	}
	for _, c := range conjuncts {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			return nil, nil, fmt.Errorf("exec: join condition %s is not an equality", c)
		}
		li, ri, ok := sideIndexes(b.L, b.R, lcols, rcols)
		if !ok {
			li, ri, ok = sideIndexes(b.R, b.L, lcols, rcols)
		}
		if !ok {
			return nil, nil, fmt.Errorf("exec: join condition %s must compare a left column with a right column", c)
		}
		left = append(left, li)
		right = append(right, ri)
	}
	return left, right, nil
}

func sideIndexes(l, r expr.Expr, lcols, rcols []string) (int, int, bool) {
	li, lok := identIndex(l, lcols)
	ri, rok := identIndex(r, rcols)
	return li, ri, lok && rok
}

func identIndex(e expr.Expr, cols []string) (int, bool) {
	id, ok := e.(*expr.Ident)
	if !ok {
		return 0, false
	}
	i, err := ResolveColumn(cols, id.Name)
	if err != nil {
		return 0, false
	}
	return i, true
}

func splitConjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []expr.Expr{e}
}
