package core

import (
	"repro/internal/iindex"
	"repro/internal/parallel"
)

// ContainsBatched reports membership for every key of the sorted
// duplicate-free batch: result[i] is true iff keys[i] is in the tree
// (§4, Listing 1.2). Expected O(m·log log n) work and polylog span.
// The result is freshly allocated (it escapes to the caller); the
// write paths reuse the traversal through containsInto with a scratch
// destination instead.
func (t *Tree[K, V]) ContainsBatched(keys []K) []bool {
	result := make([]bool, len(keys))
	if len(keys) == 0 {
		return result
	}
	t.containsRec(t.root, keys, 0, len(keys), result)
	return result
}

// containsInto resolves membership into the caller-provided result
// slice (len(keys), zero-initialized: entries of absent keys are left
// untouched). It is the arena-friendly entry the batched write paths
// use with recycled buffers.
func (t *Tree[K, V]) containsInto(keys []K, result []bool) {
	if len(keys) == 0 {
		return
	}
	t.containsRec(t.root, keys, 0, len(keys), result)
}

// ContainsBatchedInto is ContainsBatched writing into a caller-provided
// destination instead of allocating one: result must have len(keys) and
// be zero-initialized — entries of absent keys are left untouched. It
// exists so per-epoch callers (the combining frontend) can recycle
// result arrays through an arena instead of allocating each epoch.
func (t *Tree[K, V]) ContainsBatchedInto(keys []K, result []bool) {
	t.containsInto(keys, result)
}

// GetBatched fetches the value stored under every key of the sorted
// duplicate-free batch: found[i] reports whether keys[i] is live, and
// vals[i] is its value (the zero value when absent). It is the same
// batched traversal as ContainsBatched with one extra value read per
// key found, so it keeps the O(m·log log n) expected work bound.
func (t *Tree[K, V]) GetBatched(keys []K) (vals []V, found []bool) {
	vals = make([]V, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found
	}
	t.getRec(t.root, keys, 0, len(keys), vals, found)
	return vals, found
}

// containsRec is BatchedTraverse (§4.1, §4.2): it resolves membership
// of keys[l:r) within the subtree of v, writing into result at global
// batch positions. Position buffers come from the tree arena; a
// node's buffer stays borrowed until its whole child fan-out returns,
// then recycles.
func (t *Tree[K, V]) containsRec(v *node[K, V], keys []K, l, r int, result []bool) {
	if v == nil {
		return // result entries stay false
	}
	seg := r - l
	if seg <= seqSegCutoff || t.pool.Workers() == 1 {
		sc := t.newScratch()
		t.containsSeq(v, keys, l, r, result, sc, 0)
		sc.release()
		return
	}
	pf := t.ar.i32s.Get(seg)
	defer t.ar.i32s.Put(pf)
	t.findPositions(v, keys, l, r, pf)
	// Keys found in rep resolve here: present iff not logically
	// removed (§6).
	exists := v.exists
	parallel.For(t.pool, seg, 0, func(i int) {
		if pf[i]&1 == 1 {
			result[l+i] = exists[pf[i]>>1]
		}
	})
	if v.isLeaf() {
		return // leaves are the last possible location (§4.1)
	}
	t.forEachChildRun(pf, func(lo, hi int, child int) {
		t.containsRec(v.children[child], keys, l+lo, l+hi, result)
	})
}

// getRec is containsRec with a value read: keys found live in v's rep
// resolve here with their stored value, the rest descend.
func (t *Tree[K, V]) getRec(v *node[K, V], keys []K, l, r int, vals []V, found []bool) {
	if v == nil {
		return // found entries stay false
	}
	seg := r - l
	if seg <= seqSegCutoff || t.pool.Workers() == 1 {
		sc := t.newScratch()
		t.getSeq(v, keys, l, r, vals, found, sc, 0)
		sc.release()
		return
	}
	pf := t.ar.i32s.Get(seg)
	defer t.ar.i32s.Put(pf)
	t.findPositions(v, keys, l, r, pf)
	exists, vv := v.exists, v.vals
	parallel.For(t.pool, seg, 0, func(i int) {
		if pf[i]&1 == 1 && exists[pf[i]>>1] {
			found[l+i] = true
			vals[l+i] = vv[pf[i]>>1]
		}
	})
	if v.isLeaf() {
		return
	}
	t.forEachChildRun(pf, func(lo, hi int, child int) {
		t.getRec(v.children[child], keys, l+lo, l+hi, vals, found)
	})
}

// findPositions locates each key of keys[l:r) in v.rep and packs the
// result into pf: pf[i] = pos<<1 | found, where pos is the lower-bound
// position of keys[l+i] (which doubles as the child index to descend
// into when the key is absent from rep, §3.3). Every pf entry is
// written, so dirty recycled buffers are fine here.
func (t *Tree[K, V]) findPositions(v *node[K, V], keys []K, l, r int, pf []int32) {
	if t.cfg.Traverse == TraverseRank {
		// §4.1: one merge-based Rank of the whole sub-batch against
		// rep. ranks[i] = #elements of rep <= key.
		ranks := parallel.Rank(t.pool, v.rep, keys[l:r])
		rep := v.rep
		parallel.For(t.pool, r-l, 0, func(i int) {
			ub := ranks[i]
			if ub > 0 && rep[ub-1] == keys[l+i] {
				pf[i] = int32(ub-1)<<1 | 1
			} else {
				pf[i] = int32(ub) << 1
			}
		})
		return
	}
	// §4.2, Listing 1.4: per-key interpolation search in a parallel
	// loop. Inner nodes use the prebuilt index; leaf reps mutate, so
	// they interpolate on the fly.
	rep, idx := v.rep, &v.idx
	leaf := v.isLeaf()
	parallel.For(t.pool, r-l, 0, func(i int) {
		var pos int
		var found bool
		if leaf {
			pos, found = iindex.InterpolationSearch(rep, keys[l+i])
		} else {
			pos, found = iindex.Find(rep, idx, keys[l+i])
		}
		if found {
			pf[i] = int32(pos)<<1 | 1
		} else {
			pf[i] = int32(pos) << 1
		}
	})
}

// forEachChildRun partitions the sub-batch into maximal runs of keys
// that route to the same child and invokes fn for each such run in
// parallel (the per-child recursion fan-out of §4.2). Runs whose keys
// were found in rep are skipped — those keys resolved at this node.
//
// Because keys are sorted, pf is non-decreasing, every pf value forms
// one contiguous run, and distinct absent runs map to distinct
// children, so parallel invocations of fn touch disjoint children.
func (t *Tree[K, V]) forEachChildRun(pf []int32, fn func(lo, hi int, child int)) {
	buf := t.ar.ints.Get(len(pf))
	starts := parallel.FilterIndicesInto(t.pool, len(pf), buf, func(i int) bool {
		return i == 0 || pf[i] != pf[i-1]
	})
	parallel.For(t.pool, len(starts), 1, func(q int) {
		lo := starts[q]
		hi := len(pf)
		if q+1 < len(starts) {
			hi = starts[q+1]
		}
		if pf[lo]&1 == 1 {
			return // run of a key found in rep
		}
		fn(lo, hi, int(pf[lo]>>1))
	})
	t.ar.ints.Put(buf)
}
