package parallel

// Key-value variants of the §2.4 sequence primitives: identical
// algorithms to Merge and Difference, but each key carries a
// position-aligned value along. The batched tree's rebuild paths use
// them to keep values attached to keys through flatten-merge-rebuild
// cycles without zipping pairs into a temporary struct slice.

// MergeKVInto merges two sorted key sequences — each with a value
// slice of the same length riding alongside — into dstK/dstV: O(n)
// work and O(log² n) span, exactly like Merge. The relative order of
// equal keys drawn from the two inputs is unspecified; all callers in
// this repository merge disjoint duplicate-free key sets. Each
// destination's backing array is reused when its capacity covers the
// output (len(ak)+len(bk); destination lengths are ignored) and
// freshly allocated otherwise. The tree's rebuild paths pass recycled scratch
// buffers here so a flatten-merge-rebuild cycle allocates no merge
// temporaries.
//
//pbist:noalloc
func MergeKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) ([]K, []V) {
	if len(ak) != len(av) || len(bk) != len(bv) {
		panic("parallel: MergeKVInto keys/vals length mismatch")
	}
	n := len(ak) + len(bk)
	outK := sized(dstK, n)
	outV := sized(dstV, n)
	mergeKVInto(p, ak, av, bk, bv, outK, outV)
	return outK, outV
}

func mergeKVInto[K Ordered, V any](p *Pool, ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) {
	// The divide step bisects the larger input and splits the smaller
	// one by binary search, yielding two independent sub-merges.
	for {
		// Always bisect the larger input so the split is balanced.
		if len(ak) < len(bk) {
			ak, bk = bk, ak
			av, bv = bv, av
		}
		if len(dstK) <= mergeCutoff || p.sequential() {
			mergeKVSeq(ak, av, bk, bv, dstK, dstV)
			return
		}
		am := len(ak) / 2
		bm := LowerBound(bk, ak[am])
		ak0, ak1 := ak[:am], ak[am:]
		av0, av1 := av[:am], av[am:]
		bk0, bk1 := bk[:bm], bk[bm:]
		bv0, bv1 := bv[:bm], bv[bm:]
		dk0, dk1 := dstK[:am+bm], dstK[am+bm:]
		dv0, dv1 := dstV[:am+bm], dstV[am+bm:]
		if !p.acquire() {
			mergeKVSeq(ak0, av0, bk0, bv0, dk0, dv0)
			ak, av, bk, bv, dstK, dstV = ak1, av1, bk1, bv1, dk1, dv1
			continue
		}
		done := chanPool.Get().(chan *panicValue)
		go func() {
			var pv *panicValue
			defer func() {
				p.release()
				done <- pv
			}()
			defer func() {
				if r := recover(); r != nil {
					pv = recoverValue(r)
				}
			}()
			mergeKVInto(p, ak1, av1, bk1, bv1, dk1, dv1)
		}()
		mergeKVInto(p, ak0, av0, bk0, bv0, dk0, dv0)
		if pv := <-done; pv != nil {
			pv.repanic()
		}
		chanPool.Put(done)
		return
	}
}

//pbist:noalloc
func mergeKVSeq[K Ordered, V any](ak []K, av []V, bk []K, bv []V, dstK []K, dstV []V) {
	i, j, k := 0, 0, 0
	for i < len(ak) && j < len(bk) {
		if bk[j] < ak[i] {
			dstK[k] = bk[j]
			dstV[k] = bv[j]
			j++
		} else {
			dstK[k] = ak[i]
			dstV[k] = av[i]
			i++
		}
		k++
	}
	for ; i < len(ak); i++ {
		dstK[k] = ak[i]
		dstV[k] = av[i]
		k++
	}
	for ; j < len(bk); j++ {
		dstK[k] = bk[j]
		dstV[k] = bv[j]
		k++
	}
}

// DifferenceKVInto returns the (key, value) pairs of the sorted
// sequence ak/av whose key does not occur in sorted b, preserving
// order. Inputs must be duplicate-free. Same blocked two-pass
// algorithm as Difference: per-block survivor counts, a scan into
// offsets, then a parallel scatter. It writes into dstK/dstV under the
// same capacity-reuse contract as MergeKVInto (worst-case output size
// is len(ak)). Its own body is allocation-free: with sufficient dst
// capacity, only diffKVPar's blocked bookkeeping allocates, and that
// path is taken only when the pool decides the batch is worth forking.
//
//pbist:noalloc
func DifferenceKVInto[K Ordered, V any](p *Pool, ak []K, av []V, b []K, dstK []K, dstV []V) ([]K, []V) {
	if len(ak) != len(av) {
		panic("parallel: DifferenceKVInto keys/vals length mismatch")
	}
	n := len(ak)
	if n == 0 {
		return nil, nil
	}
	if len(b) == 0 {
		outK := sized(dstK, n)
		outV := sized(dstV, n)
		copy(outK, ak)
		copy(outV, av)
		return outK, outV
	}
	blocks := scanBlocks(p, n)
	if blocks == 1 {
		// Sequential shape: count once, write once, allocate nothing
		// beyond the (usually recycled) destinations.
		total := diffKVBlock[K, V](ak, nil, b, nil, nil)
		outK := sized(dstK, total)
		outV := sized(dstV, total)
		diffKVBlock(ak, av, b, outK, outV)
		return outK, outV
	}
	return diffKVPar(p, ak, av, b, dstK, dstV, blocks)
}

// diffKVPar is the blocked tail of DifferenceKVInto, split out so the
// dispatching wrapper stays //pbist:noalloc: the per-block bookkeeping
// below allocates, and it only runs when the pool has already decided
// the batch is large enough to fork.
func diffKVPar[K Ordered, V any](p *Pool, ak []K, av []V, b []K, dstK []K, dstV []V, blocks int) ([]K, []V) {
	n := len(ak)
	bs := (n + blocks - 1) / blocks

	// Pass 1: per-block survivor counts. Each block walks the range of
	// b that can overlap its keys, located by one binary search.
	counts := make([]int, blocks)
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		counts[blk] = diffKVBlock[K, V](ak[lo:hi], nil, b, nil, nil)
	})
	total := ScanInPlace(nil, counts)
	outK := sized(dstK, total)
	outV := sized(dstV, total)
	// Pass 2: scatter survivors at the scanned offsets.
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		diffKVBlock(ak[lo:hi], av[lo:hi], b, outK[counts[blk]:], outV[counts[blk]:])
	})
	return outK, outV
}

// diffKVBlock walks one block of a against the aligned range of b.
// With dstK == nil it only counts survivors (av may be nil too);
// otherwise it writes surviving pairs and assumes the destinations are
// large enough.
//
//pbist:noalloc
func diffKVBlock[K Ordered, V any](ak []K, av []V, b []K, dstK []K, dstV []V) int {
	if len(ak) == 0 {
		return 0
	}
	j := LowerBound(b, ak[0])
	w := 0
	for i, x := range ak {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		if dstK != nil {
			dstK[w] = x
			dstV[w] = av[i]
		}
		w++
	}
	return w
}
