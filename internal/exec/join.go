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
		switch f, _ := v.AsFloat(); {
		case f != f:
			x = 1
		case f != 0:
			x = math.Float64bits(f)
		}
	}
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29, true
}

var joinSeed = maphash.MakeSeed()

// joinKeyEqual reports whether two key values join.
func joinKeyEqual(a, b expr.Value) bool {
	if a.K != b.K && (a.K > expr.KindFloat || b.K > expr.KindFloat) {
		return false // a string or a boolean against another kind
	}
	c, err := expr.Compare(a, b)
	return err == nil && c == 0
}

// keyHash hashes one row's join keys, read through col; ok is false if any
// is NULL.
func keyHash(keys []int, col func(int) expr.Value) (uint64, bool) {
	var h uint64
	for _, k := range keys {
		var ok bool
		if h, ok = joinKeyHash(h, col(k)); !ok {
			return 0, false
		}
	}
	return h, true
}

// keysEqual reports whether a left and a right row join on every key pair.
func keysEqual(lk, rk []int, l, r func(int) expr.Value) bool {
	for i := range lk {
		if !joinKeyEqual(l(lk[i]), r(rk[i])) {
			return false
		}
	}
	return true
}

// joinIndex is a join's build-side hash index: head maps a key hash to 1 +
// its first build row, and next chains the rest (-1 ends), in build order;
// rows with a NULL key are in no chain.
type joinIndex struct {
	head map[uint64]int32
	next []int32
}

// newJoinIndex indexes n build rows by hash, which is false for NULL keys.
func newJoinIndex(n int, hash func(r int) (uint64, bool)) joinIndex {
	ix := joinIndex{head: make(map[uint64]int32, n), next: make([]int32, n)}
	for r := n - 1; r >= 0; r-- {
		if h, ok := hash(r); ok {
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
