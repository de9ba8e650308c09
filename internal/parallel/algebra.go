package parallel

// Whole-set algebra kernels over sorted key-value sequences: union,
// intersection, and symmetric difference of two sorted duplicate-free
// key slices, each with a position-aligned value slice riding along.
// Together with DifferenceKVInto they are the combine step of the tree's
// tree-to-tree set operations (flatten both operands, combine here,
// rebuild ideally balanced).
//
// All three share one blocked two-pass algorithm: the larger input is
// cut into equal blocks, each block's aligned range of the smaller
// input is located with one binary search per boundary, pass 1 counts
// each segment pair's output, a scan turns counts into offsets, and
// pass 2 writes every segment independently — O(|a|+|b|) work and
// O(log²(|a|+|b|)) span, with the output emitted sorted and
// duplicate-free.

// algebraOp selects the emit rule of the shared segmented kernel.
type algebraOp uint8

const (
	opUnion algebraOp = iota
	opIntersect
	opSymDiff
)

// UnionKV returns the union of two sorted duplicate-free key sequences
// with their aligned values: every key of either input appears exactly
// once, sorted. When a key occurs in both inputs, the value of the
// SECOND sequence (bk/bv) wins — callers choose a merge policy by
// argument order, since the key set of the result is the same either
// way.
func UnionKV[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V) ([]K, []V) {
	checkKV("UnionKV", ak, av, bk, bv)
	return algebraKV(p, ak, av, bk, bv, opUnion, nil, nil)
}

// UnionKVInto is UnionKV writing into dstK/dstV: each destination's
// backing array is reused when its capacity covers the output (at most
// len(ak)+len(bk); destination lengths are ignored) and freshly
// allocated otherwise. The tree-to-tree algebra passes recycled
// scratch buffers here so flatten-combine-rebuild cycles allocate no
// combine temporaries.
//
//pbist:noalloc
func UnionKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	checkKV("UnionKV", ak, av, bk, bv)
	return algebraKV(p, ak, av, bk, bv, opUnion, dstK, dstV)
}

// IntersectKVInto returns the (key, value) pairs whose key occurs in
// both sorted duplicate-free inputs, sorted, under the destination
// contract of UnionKVInto (output at most min(len(ak), len(bk))). The
// value comes from the FIRST sequence (ak/av); swap the arguments for
// the other policy.
//
//pbist:noalloc
func IntersectKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	checkKV("IntersectKVInto", ak, av, bk, bv)
	return algebraKV(p, ak, av, bk, bv, opIntersect, dstK, dstV)
}

// SymmetricDifferenceKVInto returns the (key, value) pairs whose key
// occurs in exactly one of the two sorted duplicate-free inputs,
// sorted, under the destination contract of UnionKVInto (output at
// most len(ak)+len(bk)). Each surviving pair keeps the value of the
// input it came from, so the operation is symmetric.
//
//pbist:noalloc
func SymmetricDifferenceKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	checkKV("SymmetricDifferenceKVInto", ak, av, bk, bv)
	return algebraKV(p, ak, av, bk, bv, opSymDiff, dstK, dstV)
}

func checkKV[K Ordered, V any](name string, ak []K, av []V, bk []K, bv []V) {
	if len(ak) != len(av) || len(bk) != len(bv) {
		panic("parallel: " + name + " keys/vals length mismatch")
	}
}

// algebraKV is the shared segmented two-pass kernel. The op-specific
// emit rules live in algebraSeg; this function handles the trivial
// cases, balances the split by blocking over the larger input, and
// runs the count/scan/write passes. dstK/dstV carry the optional
// caller-provided destinations of the *Into variants.
//
//pbist:noalloc
func algebraKV[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, op algebraOp, dstK []K, dstV []V) ([]K, []V) {
	// An empty operand makes every op a copy (or nothing, for
	// intersection).
	if len(ak) == 0 || len(bk) == 0 {
		if op == opIntersect {
			return nil, nil
		}
		sk, sv := ak, av
		if len(sk) == 0 {
			sk, sv = bk, bv
		}
		if len(sk) == 0 {
			return nil, nil
		}
		outK := sized(dstK, len(sk))
		outV := sized(dstV, len(sk))
		copy(outK, sk)
		copy(outV, sv)
		return outK, outV
	}

	// Block over the larger input so segment sizes — and therefore the
	// parallel slack — track the total work even at extreme operand
	// ratios (a 1:1000 union must not degenerate into one segment).
	// Swapping operands swaps which side "wins" a common key, so the
	// emit rule records which physical side carries the policy value.
	commonFromFirst := op != opUnion // union: second wins; intersect: first
	if len(ak) < len(bk) {
		ak, av, bk, bv = bk, bv, ak, av
		commonFromFirst = !commonFromFirst
	}
	n := len(ak)
	blocks := scanBlocks(p, n+len(bk))
	if blocks > n {
		blocks = n
	}
	if blocks == 1 {
		// Sequential shape: one counting walk, one writing walk, no
		// segment bookkeeping.
		total := algebraSeg[K, V](ak, nil, bk, nil, op, commonFromFirst, nil, nil)
		outK := sized(dstK, total)
		outV := sized(dstV, total)
		algebraSeg(ak, av, bk, bv, op, commonFromFirst, outK, outV)
		return outK, outV
	}
	return algebraKVPar(p, ak, av, bk, bv, op, commonFromFirst, dstK, dstV, blocks)
}

// algebraKVPar is the segmented tail of algebraKV, split out so the
// dispatching wrapper stays //pbist:noalloc: the segment bookkeeping
// below allocates, and it only runs when the pool has already decided
// the operands are large enough to fork.
func algebraKVPar[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, op algebraOp, commonFromFirst bool, dstK []K, dstV []V, blocks int) ([]K, []V) {
	n := len(ak)
	bs := (n + blocks - 1) / blocks

	// Segment i pairs a[i·bs, (i+1)·bs) with the b range holding keys
	// in [a[i·bs], a[(i+1)·bs)); the first and last segments extend to
	// the ends of b so every b key lands in exactly one segment.
	bounds := make([]int, blocks+1)
	bounds[blocks] = len(bk)
	For(p, blocks-1, 1, func(i int) {
		if idx := (i + 1) * bs; idx < n {
			bounds[i+1] = LowerBound(bk, ak[idx])
		} else {
			// ceil rounding can push trailing block starts past the end
			// of a; those segments are empty and take no b range.
			bounds[i+1] = len(bk)
		}
	})

	// Pass 1: per-segment output counts. lo is clamped like hi: ceil
	// rounding can push trailing block starts past the end of a.
	counts := make([]int, blocks)
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		counts[blk] = algebraSeg[K, V](ak[lo:hi], nil, bk[bounds[blk]:bounds[blk+1]], nil, op, commonFromFirst, nil, nil)
	})
	total := ScanInPlace(nil, counts)
	outK := sized(dstK, total)
	outV := sized(dstV, total)
	// Pass 2: write every segment at its scanned offset.
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		algebraSeg(ak[lo:hi], av[lo:hi], bk[bounds[blk]:bounds[blk+1]], bv[bounds[blk]:bounds[blk+1]],
			op, commonFromFirst, outK[counts[blk]:], outV[counts[blk]:])
	})
	return outK, outV
}

// algebraSeg merges one aligned segment pair with a sequential
// two-pointer walk. With dstK == nil it only counts the output (the
// value slices may be nil too); otherwise it writes pairs and assumes
// the destinations are large enough. commonFromFirst selects which
// side's value a key present in both inputs keeps.
//
//pbist:noalloc
func algebraSeg[K Ordered, V any](ak []K, av []V, bk []K, bv []V, op algebraOp, commonFromFirst bool, dstK []K, dstV []V) int {
	i, j, w := 0, 0, 0
	write := dstK != nil
	for i < len(ak) && j < len(bk) {
		switch {
		case ak[i] < bk[j]:
			if op != opIntersect {
				if write {
					dstK[w] = ak[i]
					dstV[w] = av[i]
				}
				w++
			}
			i++
		case bk[j] < ak[i]:
			if op != opIntersect {
				if write {
					dstK[w] = bk[j]
					dstV[w] = bv[j]
				}
				w++
			}
			j++
		default: // key in both inputs
			if op != opSymDiff {
				if write {
					dstK[w] = ak[i]
					if commonFromFirst {
						dstV[w] = av[i]
					} else {
						dstV[w] = bv[j]
					}
				}
				w++
			}
			i++
			j++
		}
	}
	if op != opIntersect {
		if write {
			copy(dstK[w:], ak[i:])
			copy(dstV[w:], av[i:])
		}
		w += len(ak) - i
		if write {
			copy(dstK[w:], bk[j:])
			copy(dstV[w:], bv[j:])
		}
		w += len(bk) - j
	}
	return w
}
