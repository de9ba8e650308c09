package parallel

// FilterIndex returns the elements arr[i] whose index satisfies
// pred(i), preserving order: the Filter of §2.4 keyed by position
// rather than value, which the batched operations use to select
// sub-batches by a parallel-computed boolean side array without first
// zipping values and flags together. O(n) work, O(log n) span for O(1)
// predicates: per-block match counts are computed in parallel,
// scanned into output offsets, and matching elements are scattered
// block-by-block.
func FilterIndex[T any](p *Pool, arr []T, pred func(i int) bool) []T {
	return FilterIndexInto(p, arr, nil, pred)
}

// FilterIndexInto is FilterIndex writing into dst: the result reuses
// dst's backing array when its capacity suffices (dst's length is
// ignored) and is freshly allocated otherwise, so callers can feed
// recycled scratch buffers of worst-case size len(arr) and allocate
// nothing on the hot path.
//
//pbist:noalloc
func FilterIndexInto[T any](p *Pool, arr []T, dst []T, pred func(i int) bool) []T {
	n := len(arr)
	if n == 0 {
		return nil
	}
	blocks := scanBlocks(p, n)
	if blocks == 1 {
		out := dst[:0]
		for i, v := range arr {
			if pred(i) {
				out = append(out, v)
			}
		}
		return out
	}
	return filterIndexPar(p, arr, dst, pred, blocks)
}

// filterIndexPar is the blocked tail of FilterIndexInto, split out so
// the dispatching wrapper stays //pbist:noalloc: the count/scan
// bookkeeping below allocates, and it only runs when the pool has
// already decided the array is large enough to fork.
func filterIndexPar[T any](p *Pool, arr []T, dst []T, pred func(i int) bool, blocks int) []T {
	n := len(arr)
	bs := (n + blocks - 1) / blocks
	counts := predCounts(p, n, bs, blocks, pred)
	total := ScanInPlace(nil, counts)
	out := sized(dst, total)
	For(p, blocks, 1, func(b int) {
		lo, hi := b*bs, min((b+1)*bs, n)
		w := counts[b]
		for i := lo; i < hi; i++ {
			if pred(i) {
				out[w] = arr[i]
				w++
			}
		}
	})
	return out
}

// predCounts is pass 1 of both blocked filters: per-block match
// counts, ready for the exclusive scan into scatter offsets.
func predCounts(p *Pool, n, bs, blocks int, pred func(i int) bool) []int {
	counts := make([]int, blocks)
	For(p, blocks, 1, func(b int) {
		lo, hi := b*bs, min((b+1)*bs, n)
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		counts[b] = c
	})
	return counts
}

// FilterIndicesInto returns, in ascending order, the indices i in
// [0, n) that satisfy pred, writing into dst under the same
// capacity-reuse contract as FilterIndexInto. The batched tree uses it
// to find run boundaries in a position array with O(n) work and
// O(log n) span.
//
//pbist:noalloc
func FilterIndicesInto(p *Pool, n int, dst []int, pred func(i int) bool) []int {
	if n <= 0 {
		return nil
	}
	blocks := scanBlocks(p, n)
	if blocks == 1 {
		out := dst[:0]
		for i := 0; i < n; i++ {
			if pred(i) {
				out = append(out, i)
			}
		}
		return out
	}
	return filterIndicesPar(p, n, dst, pred, blocks)
}

// filterIndicesPar is the blocked tail of FilterIndicesInto, split out
// for the same reason as filterIndexPar.
func filterIndicesPar(p *Pool, n int, dst []int, pred func(i int) bool, blocks int) []int {
	bs := (n + blocks - 1) / blocks
	counts := predCounts(p, n, bs, blocks, pred)
	total := ScanInPlace(nil, counts)
	out := sized(dst, total)
	For(p, blocks, 1, func(b int) {
		lo, hi := b*bs, min((b+1)*bs, n)
		w := counts[b]
		for i := lo; i < hi; i++ {
			if pred(i) {
				out[w] = i
				w++
			}
		}
	})
	return out
}

// sized returns dst resliced to length n when its capacity allows, or
// a fresh allocation otherwise — the shared destination contract of
// every *Into variant in this package.
func sized[T any](dst []T, n int) []T {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]T, n)
}
