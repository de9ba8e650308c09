package parallel

// Two-sequence set algebra: the Merge and Difference of §2.4, widened
// to the union, intersection, difference and symmetric difference of
// two sorted duplicate-free key sequences, each with a
// position-aligned value slice riding along. One kernel serves all
// four; the op only picks which keys it writes. A merge of disjoint
// sets is a union, and key-only callers instantiate V = struct{}.
// Together they are the combine step of the tree's rebuilds and of
// its tree-to-tree set operations (flatten both operands, combine
// here, rebuild ideally balanced).
//
// Every entry point writes into dstK/dstV: each destination's backing
// array is reused when its capacity covers the worst-case output
// (len(ak)+len(bk) for union and symmetric difference, len(ak) for
// difference, min(len(ak), len(bk)) for intersection; destination
// lengths are ignored) and freshly allocated otherwise, so a nil
// destination allocates. The kernel writes each output once into that
// worst-case room and trims: O(|a|+|b|) work. When the pool forks,
// the larger input is cut into blocks, each block's aligned range of
// the smaller input is located by one binary search, every block walks
// in parallel and writes at its worst-case offset, and one in-order
// left copy closes the gaps; the copy moves nothing when no block
// falls short of its worst case (a disjoint union, as every rebuild
// merge is).

// setOp selects the keys the kernel writes.
type setOp uint8

const (
	opUnion      setOp = iota // every key once; a common key takes the second operand's value
	opIntersect               // the common keys, with the first operand's values
	opDifference              // the keys of the first operand only
	opSymDiff                 // the keys of exactly one operand, each with its own value
)

// UnionKVInto returns the union of two sorted duplicate-free key
// sequences with their aligned values: every key of either input
// appears exactly once, sorted. When a key occurs in both inputs, the
// value of the SECOND sequence (bk/bv) wins — callers choose a merge
// policy by argument order, since the key set of the result is the
// same either way.
//
//pbist:noalloc
func UnionKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	return setKV(p, opUnion, ak, av, bk, bv, dstK, dstV)
}

// IntersectKVInto returns the (key, value) pairs whose key occurs in
// both sorted duplicate-free inputs, sorted. The value comes from the
// FIRST sequence (ak/av); swap the arguments for the other policy.
//
//pbist:noalloc
func IntersectKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	return setKV(p, opIntersect, ak, av, bk, bv, dstK, dstV)
}

// DifferenceKVInto returns the (key, value) pairs of the sorted
// duplicate-free sequence ak/av whose key does not occur in bk, in
// order (§2.4: [2 4 5 7 9] \ [2 5 9] = [4 7]). bv must be aligned
// with bk but is never read.
//
//pbist:noalloc
func DifferenceKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	return setKV(p, opDifference, ak, av, bk, bv, dstK, dstV)
}

// SymmetricDifferenceKVInto returns the (key, value) pairs whose key
// occurs in exactly one of the two sorted duplicate-free inputs,
// sorted. Each surviving pair keeps the value of the input it came
// from, so the operation is symmetric.
//
//pbist:noalloc
func SymmetricDifferenceKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	return setKV(p, opSymDiff, ak, av, bk, bv, dstK, dstV)
}

// emitRule is an op resolved against the order the kernel walks its
// operands in: whether keys only in a, keys only in b and keys in both
// are written, and whether a common key takes b's value.
type emitRule struct {
	a, b, both, bothFromB bool
}

func (op setOp) rule() emitRule {
	switch op {
	case opUnion:
		return emitRule{a: true, b: true, both: true, bothFromB: true}
	case opIntersect:
		return emitRule{both: true}
	case opDifference:
		return emitRule{a: true}
	default:
		return emitRule{a: true, b: true}
	}
}

// swapped is the rule that writes the same keys and values from the
// operands in the other order.
func (r emitRule) swapped() emitRule {
	return emitRule{a: r.b, b: r.a, both: r.both, bothFromB: !r.bothFromB}
}

// bound is the most keys the rule writes from na keys of a and nb of
// b: keys only in a are charged to a, the rest to b.
func (r emitRule) bound(na, nb int) int {
	n := 0
	if r.a {
		n += na
	}
	if r.b || r.both {
		n += nb
	}
	return n
}

// setKV is the one kernel behind the four entry points. It walks the
// larger input as a, so the worst case of an intersection is the
// smaller input and the parallel blocks track the total work even at
// extreme operand ratios (a 1:1000 union must not degenerate into one
// block).
//
//pbist:noalloc
func setKV[K Ordered, V any](p *Pool, op setOp, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	if len(ak) != len(av) || len(bk) != len(bv) {
		panic("parallel: set algebra keys/vals length mismatch")
	}
	r := op.rule()
	if len(ak) < len(bk) {
		ak, av, bk, bv = bk, bv, ak, av
		r = r.swapped()
	}
	n := r.bound(len(ak), len(bk))
	outK, outV := sized(dstK, n), sized(dstV, n)
	var w int
	if blocks := min(scanBlocks(p, len(ak)+len(bk)), len(ak)); blocks > 1 {
		w = setKVPar(p, r, ak, av, bk, bv, outK, outV, blocks)
	} else {
		w = walk(r, ak, av, bk, bv, outK, outV)
	}
	return outK[:w], outV[:w]
}

// setKVPar is the blocked tail of setKV, split out so the sequential
// entry stays //pbist:noalloc: the block bookkeeping below allocates,
// and it only runs when the pool has already decided the operands are
// large enough to fork. It returns the number of pairs written to the
// front of outK/outV, which must hold r.bound(len(ak), len(bk)).
func setKVPar[K Ordered, V any](p *Pool, r emitRule, ak []K, av []V, bk []K, bv []V, outK []K, outV []V, blocks int) int {
	n := len(ak)
	bs := (n + blocks - 1) / blocks
	// Block i pairs a[i·bs, (i+1)·bs) with the b keys in
	// [a[i·bs], a[(i+1)·bs)); the first and last blocks extend to the
	// ends of b so every b key lands in exactly one block. Ceil
	// rounding can push trailing block starts past the end of a: those
	// blocks are empty and take no b range.
	bounds := make([]int, 2*blocks+1)
	counts := bounds[blocks+1:]
	bounds = bounds[:blocks+1]
	bounds[blocks] = len(bk)
	For(p, blocks-1, 1, func(i int) {
		bounds[i+1] = len(bk)
		if idx := (i + 1) * bs; idx < n {
			bounds[i+1] = LowerBound(bk, ak[idx])
		}
	})
	// Each block writes at its worst-case offset, so no block waits
	// for another's count.
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		blo, bhi := bounds[blk], bounds[blk+1]
		off := r.bound(lo, blo)
		counts[blk] = walk(r, ak[lo:hi], av[lo:hi], bk[blo:bhi], bv[blo:bhi], outK[off:], outV[off:])
	})
	// Close the gaps in order: each block moves left, never over a
	// block still to be moved.
	w := 0
	for blk, c := range counts {
		if off := r.bound(min(blk*bs, n), bounds[blk]); off != w {
			copy(outK[w:w+c], outK[off:off+c])
			copy(outV[w:w+c], outV[off:off+c])
		}
		w += c
	}
	return w
}

// walk combines one aligned pair of sorted runs with a two-pointer
// walk, writing the pairs r selects to the front of dstK/dstV, which
// must hold r.bound(len(ak), len(bk)). It returns how many it wrote.
// The rule is decided once per call, not per key: union and symmetric
// difference write every key found in one input only, so their loop
// is a plain merge that tests the rule on common keys alone;
// intersection and difference read it from locals. Reslicing the value
// slices to their keys' lengths once lets the compiler drop the value
// bounds checks.
//
//pbist:noalloc
func walk[K Ordered, V any](r emitRule, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) int {
	av, bv, dstV = av[:len(ak)], bv[:len(bk)], dstV[:len(dstK)]
	i, j, w := 0, 0, 0
	if r.a && r.b {
		both, fromB := r.both, r.bothFromB
		for i < len(ak) && j < len(bk) {
			x, y := ak[i], bk[j]
			if y < x {
				dstK[w], dstV[w] = y, bv[j]
				j++
			} else if x < y {
				dstK[w], dstV[w] = x, av[i]
				i++
			} else {
				i++
				j++
				if !both {
					continue
				}
				dstK[w], dstV[w] = x, av[i-1]
				if fromB {
					dstV[w] = bv[j-1]
				}
			}
			w++
		}
	} else {
		emitA, emitB, both, fromB := r.a, r.b, r.both, r.bothFromB
		for i < len(ak) && j < len(bk) {
			x, y := ak[i], bk[j]
			if y < x {
				if emitB {
					dstK[w], dstV[w] = y, bv[j]
					w++
				}
				j++
				continue
			}
			if x < y {
				if emitA {
					dstK[w], dstV[w] = x, av[i]
					w++
				}
				i++
				continue
			}
			if both {
				dstK[w], dstV[w] = x, av[i]
				if fromB {
					dstV[w] = bv[j]
				}
				w++
			}
			i++
			j++
		}
	}
	if r.a {
		copy(dstV[w:], av[i:])
		w += copy(dstK[w:], ak[i:])
	}
	if r.b {
		copy(dstV[w:], bv[j:])
		w += copy(dstK[w:], bk[j:])
	}
	return w
}
