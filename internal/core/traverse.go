package core

import (
	"math"

	"repro/internal/iindex"
	"repro/internal/parallel"
)

// ContainsBatched reports membership for every key of the sorted
// duplicate-free batch: result[i] is true iff keys[i] is in the tree
// (§4, Listing 1.2). Expected O(m·log log n) work and polylog span. It
// is getRec without the value read; the result is freshly allocated
// (it escapes to the caller), and the traversal's scratch comes from
// the arena.
func (t *Tree[K, V]) ContainsBatched(keys []K) []bool {
	result := make([]bool, len(keys))
	if len(keys) > 0 {
		t.getRec(t.root, keys, 0, len(keys), nil, result, nil, 0)
	}
	return result
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
	t.getRec(t.root, keys, 0, len(keys), vals, found, nil, 0)
	return vals, found
}

// lookup is a sequential root-to-leaf interpolation walk from v for
// one key: the single-key form of the §4.2 traversal, with no batch
// machinery and no scratch. A key found in a rep array resolves there
// (live or logically removed — §6 guarantees a key occupies at most
// one slot); an absent key descends the lower-bound child, taking
// down the separators that bound it (childBounds), and the leaf it
// reaches is searched with one probe between them (iindex.SearchLeaf).
// The live tree's Contains/Get and every published-version point read
// use it.
//
//pbist:noalloc
func lookup[K iindex.Numeric, V any](v *node[K, V], key K) (val V, ok bool) {
	lo, hi := math.Inf(-1), math.Inf(1)
	for v != nil {
		var pos int
		var found bool
		leaf := v.isLeaf()
		if leaf {
			pos, found = iindex.SearchLeaf(v.rep, lo, hi, key)
		} else {
			pos, found = iindex.Find(v.rep, &v.idx, key)
		}
		if found {
			if v.exists[pos] {
				return v.vals[pos], true
			}
			return val, false
		}
		if leaf {
			return val, false
		}
		lo, hi = childBounds(v.rep, pos, lo, hi)
		v = v.children[pos]
	}
	return val, false
}

// childBounds narrows lo and hi, the float images of the separators
// bounding a node's keys, to those bounding its child pos: rep[pos-1]
// and rep[pos] where they exist. A first or last child keeps the
// bound its parent inherited on that side (±Inf on the tree's outer
// spines).
func childBounds[K iindex.Numeric](rep []K, pos int, lo, hi float64) (float64, float64) {
	if pos > 0 {
		lo = float64(rep[pos-1])
	}
	if pos < len(rep) {
		hi = float64(rep[pos])
	}
	return lo, hi
}

// getRec is BatchedTraverse (§4.1, §4.2): it resolves the keys[l:r)
// within the subtree of v, writing found (and, when vals is non-nil,
// the stored value) at global batch positions. A key found in v's rep
// resolves here: present iff not logically removed (§6); the rest
// descend, and leaves are the last possible location (§4.1). sc is the
// walker of the sequential segment the call belongs to, nil while the
// segment is walked in parallel. A parallel segment takes its position
// buffer from the tree arena and holds it until its whole child
// fan-out returns; the first segment small enough to walk sequentially
// borrows a walker, and its subtree runs plain loops on the walker's
// per-depth buffers.
func (t *Tree[K, V]) getRec(v *node[K, V], keys []K, l, r int, vals []V, found []bool, sc *scratch, depth int) {
	if v == nil {
		return // found entries stay false
	}
	seg := r - l
	if sc == nil && !t.sequential(seg) {
		pf := t.ar.i32s.Get(seg)
		defer t.ar.i32s.Put(pf)
		t.findPositions(v, keys[l:r], pf, nil)
		exists, vv := v.exists, v.vals
		parallel.For(t.pool, seg, 0, func(i int) {
			if pf[i]&1 == 1 && exists[pf[i]>>1] {
				found[l+i] = true
				if vals != nil {
					vals[l+i] = vv[pf[i]>>1]
				}
			}
		})
		if !v.isLeaf() {
			t.forEachChildRun(pf, func(lo, hi int, child int) {
				t.getRec(v.children[child], keys, l+lo, l+hi, vals, found, nil, 0)
			})
		}
		return
	}
	if sc == nil {
		sc = t.newScratch()
		defer sc.release()
	}
	pf := sc.buf(depth, seg)
	t.findPositions(v, keys[l:r], pf, sc)
	for i, p := range pf {
		if p&1 == 1 && v.exists[p>>1] {
			found[l+i] = true
			if vals != nil {
				vals[l+i] = v.vals[p>>1]
			}
		}
	}
	if v.isLeaf() {
		return
	}
	for i, j := 0, 0; i < seg; i = j {
		j = runEnd(pf, i)
		if pf[i]&1 == 0 {
			t.getRec(v.children[pf[i]>>1], keys, l+i, l+j, vals, found, sc, depth+1)
		}
	}
}

// findPositions locates each key in v.rep and packs the result into
// pf: pf[i] = pos<<1 | found, where pos is the lower-bound position of
// keys[i] (which doubles as the child index to descend into when the
// key is absent from rep, §3.3). Every pf entry is written, so dirty
// recycled buffers are fine here. With a walker (sc != nil) it runs
// plain loops; without one, the parallel forms.
func (t *Tree[K, V]) findPositions(v *node[K, V], keys []K, pf []int32, sc *scratch) {
	rep := v.rep
	if t.cfg.Traverse == TraverseRank {
		// §4.1: rank the sub-batch against rep, ub = #elements of
		// rep <= key — in parallel, one merge-based Rank of the whole
		// sub-batch.
		if sc != nil {
			for i, k := range keys {
				pf[i] = rankPos(rep, k, parallel.UpperBound(rep, k))
			}
			return
		}
		ranks := parallel.Rank(t.pool, rep, keys)
		parallel.For(t.pool, len(keys), 0, func(i int) {
			pf[i] = rankPos(rep, keys[i], ranks[i])
		})
		return
	}
	// §4.2, Listing 1.4: per-key interpolation search, in parallel
	// blocks without a walker.
	if sc != nil {
		searchInto(v, keys, pf)
		return
	}
	parallel.ForRange(t.pool, len(keys), 0, func(lo, hi int) {
		searchInto(v, keys[lo:hi], pf[lo:hi])
	})
}

// rankPos packs the position of key given ub, its rank in rep.
func rankPos[K iindex.Numeric](rep []K, key K, ub int) int32 {
	if ub > 0 && rep[ub-1] == key {
		return pack(ub-1, true)
	}
	return pack(ub, false)
}

// searchInto is the §4.2 per-key search of keys against v.rep. Inner
// nodes use the prebuilt index (Find); leaf reps mutate, so they are
// searched with one interpolated probe between their own end keys
// (SearchLeaf with ±Inf separators). Both refine with iindex.Walk.
func searchInto[K iindex.Numeric, V any](v *node[K, V], keys []K, pf []int32) {
	rep := v.rep
	if v.isLeaf() {
		lo, hi := math.Inf(-1), math.Inf(1)
		for i, k := range keys {
			pf[i] = pack(iindex.SearchLeaf(rep, lo, hi, k))
		}
		return
	}
	for i, k := range keys {
		pf[i] = pack(iindex.Find(rep, &v.idx, k))
	}
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
