package core

import (
	"repro/internal/iindex"
	"repro/internal/parallel"
)

// Whole-tree set algebra (§2.2 taken to its conclusion): where
// InsertBatched/RemoveBatched combine a tree with a *slice*, the
// operations here combine a tree with another *tree*. Following the
// bulk route of Akhremtsev & Sanders ("Fast Parallel Operations on
// Search Trees") adapted to the IST's rebuild machinery, every
// operation is flatten–combine–rebuild: both operands flatten in
// parallel (§7.2), parallel's one set-algebra kernel combines the
// sorted key/value arrays, and buildIdeal (§7.3) rebuilds an ideally
// balanced result — O(n₁+n₂) work and polylogarithmic span, which
// matches the cost of the rebuild any sufficiently large batch
// triggers anyway, and leaves the result in the best possible shape
// for later batches.
//
// All operations are non-mutating: the operands survive untouched and
// the result is a fresh tree carrying the receiver's configuration and
// pool (each result owns a fresh arena — scratch buffers never cross
// trees). Every temporary of the flatten-combine-rebuild cycle — both
// flatten buffer pairs and the combine destination — is receiver-arena
// scratch, returned once buildIdeal has copied the combined pairs into
// the result's chunk storage. Operands whose combined size is small
// run fully sequentially, mirroring the seqpath.go cutoff.

// algebraPool returns the pool tree-to-tree combine kernels run on:
// the tree's own pool, or nil (sequential) when the combined operand
// size is too small to win anything from forking — the same cutoff
// that gates flatten and buildIdeal.
func (t *Tree[K, V]) algebraPool(n int) *parallel.Pool {
	if n <= buildSeqCutoff {
		return nil
	}
	return t.pool
}

// flattenPairScratch flattens the receiver and other into sorted
// key/value arrays drawn from the receiver's arena, the two flattens
// themselves running in parallel with each other on the receiver's
// pool. The caller must return both pairs with t.ar.putKV once the
// data has been copied onward.
//
//pbist:owner
func (t *Tree[K, V]) flattenPairScratch(other *Tree[K, V]) (ak []K, av []V, bk []K, bv []V) {
	t.pool.Do(
		func() { ak, av = t.flattenScratch(t.root) },
		func() {
			if other.root == nil {
				return
			}
			bk = t.ar.keys.Get(other.root.size)
			bv = t.ar.vals.Get(other.root.size)
			t.fillFlat(other.root, bk, bv)
		},
	)
	return ak, av, bk, bv
}

// rebuiltFrom wraps sorted duplicate-free keys/vals into a fresh
// ideally balanced tree with the receiver's configuration and pool.
func (t *Tree[K, V]) rebuiltFrom(keys []K, vals []V) *Tree[K, V] {
	res := New[K, V](t.cfg, t.pool)
	res.root = res.buildIdeal(keys, vals)
	return res
}

// combineKernel is the signature of parallel's set-algebra entry
// points.
type combineKernel[K iindex.Numeric, V any] func(p *parallel.Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V)

// combine is every tree-to-tree set operation: flatten t and other,
// combine the pairs with kernel — t's as the first operand, or
// other's when otherFirst — and rebuild the result ideally. The
// combine destination, dstLen pairs (the kernel's worst case), is
// receiver-arena scratch like the flattens.
func (t *Tree[K, V]) combine(other *Tree[K, V], kernel combineKernel[K, V], otherFirst bool, dstLen int) *Tree[K, V] {
	ak, av, bk, bv := t.flattenPairScratch(other)
	xk, xv, yk, yv := ak, av, bk, bv
	if otherFirst {
		xk, xv, yk, yv = bk, bv, ak, av
	}
	dstK, dstV := t.ar.keys.Get(dstLen), t.ar.vals.Get(dstLen)
	mk, mv := kernel(t.algebraPool(len(ak)+len(bk)), xk, xv, yk, yv, dstK, dstV)
	res := t.rebuiltFrom(mk, mv)
	t.ar.putKV(ak, av)
	t.ar.putKV(bk, bv)
	t.ar.putKV(dstK, dstV)
	return res
}

// Union returns a new tree holding every key of t and other. On keys
// present in both, the value comes from other when otherWins is true
// and from t otherwise (for the set instantiation V = struct{} the
// flag is irrelevant). Neither operand is modified.
func (t *Tree[K, V]) Union(other *Tree[K, V], otherWins bool) *Tree[K, V] {
	return t.combine(other, parallel.UnionKVInto[K, V], !otherWins, t.Len()+other.Len())
}

// Intersect returns a new tree holding the keys present in both t and
// other, with values from other when otherWins is true and from t
// otherwise. Neither operand is modified.
func (t *Tree[K, V]) Intersect(other *Tree[K, V], otherWins bool) *Tree[K, V] {
	return t.combine(other, parallel.IntersectKVInto[K, V], otherWins, min(t.Len(), other.Len()))
}

// DifferenceTree returns a new tree holding the keys of t that are not
// in other, keeping t's values. Neither operand is modified. (The name
// leaves Difference free for slice-operand helpers in the public API.)
func (t *Tree[K, V]) DifferenceTree(other *Tree[K, V]) *Tree[K, V] {
	return t.combine(other, parallel.DifferenceKVInto[K, V], false, t.Len())
}

// SymmetricDifference returns a new tree holding the keys present in
// exactly one of t and other, each key keeping the value of the
// operand it came from. Neither operand is modified.
func (t *Tree[K, V]) SymmetricDifference(other *Tree[K, V]) *Tree[K, V] {
	return t.combine(other, parallel.SymmetricDifferenceKVInto[K, V], false, t.Len()+other.Len())
}

// Split partitions t by key into two new ideally balanced trees: left
// holds the keys < key, right the keys >= key. t is not modified; the
// two rebuilds run in parallel.
func (t *Tree[K, V]) Split(key K) (left, right *Tree[K, V]) {
	ak, av := t.flattenScratch(t.root)
	cut := parallel.LowerBound(ak, key)
	left = New[K, V](t.cfg, t.pool)
	right = New[K, V](t.cfg, t.pool)
	t.pool.Do(
		func() { left.root = left.buildIdeal(ak[:cut], av[:cut]) },
		func() { right.root = right.buildIdeal(ak[cut:], av[cut:]) },
	)
	t.ar.putKV(ak, av)
	return left, right
}

// Join returns a new tree holding every pair of t and other, requiring
// every key of t to be strictly smaller than every key of other (the
// inverse of Split; use Union for overlapping ranges). It panics when
// the ranges touch or overlap. Neither operand is modified.
func (t *Tree[K, V]) Join(other *Tree[K, V]) *Tree[K, V] {
	if t.Len() > 0 && other.Len() > 0 {
		maxK, _, _ := t.Max()
		minK, _, _ := other.Min()
		if maxK >= minK {
			panic("core: Join requires every key of the receiver to be smaller than every key of the argument")
		}
	}
	ak, av, bk, bv := t.flattenPairScratch(other)
	keys, vals := t.ar.keys.Get(len(ak)+len(bk)), t.ar.vals.Get(len(ak)+len(bk))
	t.pool.Do(
		func() { copy(keys, ak); copy(vals, av) },
		func() { copy(keys[len(ak):], bk); copy(vals[len(av):], bv) },
	)
	res := t.rebuiltFrom(keys, vals)
	t.ar.putKV(ak, av)
	t.ar.putKV(bk, bv)
	t.ar.putKV(keys, vals)
	return res
}
