package core

import (
	"iter"

	"repro/internal/iindex"
	"repro/internal/parallel"
)

// In-order iteration (Go 1.23 range-over-func). Iterators walk the
// tree lazily and stop as soon as the consumer breaks, so a prefix
// scan of a huge tree costs only the prefix. Like every other read,
// iteration is not safe concurrently with batched updates on the same
// tree.

// All returns an in-order iterator over every live (key, value) pair.
func (t *Tree[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		ascendNode(t.root, nil, nil, yield)
	}
}

// Ascend returns an in-order iterator over the live (key, value) pairs
// with lo <= key <= hi. Like AppendRangeKV, only the two boundary
// root-to-leaf paths compare keys individually; interior subtrees are
// walked bound-free.
func (t *Tree[K, V]) Ascend(lo, hi K) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if hi < lo {
			return
		}
		ascendNode(t.root, &lo, &hi, yield)
	}
}

// ascendNode yields the live pairs of v between the bounds (nil means
// unconstrained) in ascending key order, returning false when the
// consumer stopped early.
func ascendNode[K iindex.Numeric, V any](v *node[K, V], lo, hi *K, yield func(K, V) bool) bool {
	if v == nil || v.size == 0 {
		return true
	}
	if v.isLeaf() {
		for i, x := range v.rep {
			if !v.exists[i] {
				continue
			}
			if lo != nil && x < *lo {
				continue
			}
			if hi != nil && *hi < x {
				return true // leaf rep is sorted: nothing further matches
			}
			if !yield(x, v.vals[i]) {
				return false
			}
		}
		return true
	}
	k := len(v.rep)
	start, end := 0, k
	if lo != nil {
		start = parallel.LowerBound(v.rep, *lo)
	}
	if hi != nil {
		end = parallel.UpperBound(v.rep, *hi)
	}
	for i := start; i <= end; i++ {
		clo, chi := lo, hi
		if i > start {
			clo = nil // interior child: fully above lo
		}
		if i < end {
			chi = nil // interior child: fully below hi
		}
		if !ascendNode(v.children[i], clo, chi, yield) {
			return false
		}
		if i < end && v.exists[i] {
			x := v.rep[i]
			if (lo == nil || *lo <= x) && (hi == nil || x <= *hi) {
				if !yield(x, v.vals[i]) {
					return false
				}
			}
		}
	}
	return true
}
