package core

import "repro/internal/parallel"

// RemoveBatched deletes every key of the sorted duplicate-free batch
// from the tree and returns the number of keys actually removed (absent
// keys are skipped). It implements §6: the batch is filtered to the
// keys currently present, then the traversal marks each of them
// logically removed in the Exists array of the node whose Rep holds it
// (Fig. 12). Space — including the value slots — is reclaimed by the
// next rebuild of an enclosing subtree (§7). The filter is one
// membership traversal; the removal is ApplyResolved's. The membership
// side array and the filtered batch are arena scratch with this call's
// lifetime.
//
// RemoveBatched(B) is set difference: A.RemoveBatched(B) makes
// A = A \ B (§2.2).
func (t *Tree[K, V]) RemoveBatched(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	present := t.ar.bools.GetZero(len(keys))
	t.containsInto(keys, present)
	doomedBuf := t.ar.keys.Get(len(keys))
	doomed := parallel.FilterIndexInto(t.pool, keys, doomedBuf, func(i int) bool { return present[i] })
	t.ar.bools.Put(present)
	t.ApplyResolved(nil, nil, nil, nil, doomed)
	t.ar.keys.Put(doomedBuf)
	return len(doomed)
}

// removeRec removes keys[l:r) — all logically present — from subtree v
// and returns the possibly replaced subtree root. sc and depth are
// containsRec's walker.
func (t *Tree[K, V]) removeRec(v *node[K, V], keys []K, l, r int, sc *scratch, depth int) *node[K, V] {
	seg := r - l
	if t.rebuildDue(v, seg) {
		// §7.1 step 2b: the recursion stops here for this subtree.
		root := t.rebuildSubtracted(v, keys, l, r)
		t.retireSubtree(v)
		return root
	}
	v = t.owned(v)
	v.modCnt += seg
	v.size -= seg

	// Mark keys found in this rep as logically removed (§6). Every
	// batch key is live in the tree, so each is found exactly once
	// along its root-to-leaf path; at a leaf all of them are.
	if sc == nil && !t.sequential(seg) {
		pf := t.ar.i32s.Get(seg)
		defer t.ar.i32s.Put(pf)
		t.findPositions(v, keys[l:r], pf, nil)
		t.ownSlots(v)
		exists := v.exists
		parallel.For(t.pool, seg, 0, func(i int) {
			if pf[i]&1 == 1 {
				exists[pf[i]>>1] = false
			}
		})
		if !v.isLeaf() {
			children := v.children
			t.forEachChildRun(pf, func(lo, hi int, child int) {
				children[child] = t.removeRec(children[child], keys, l+lo, l+hi, nil, 0)
			})
		}
		return v
	}
	if sc == nil {
		sc = t.newScratch()
		defer sc.release()
	}
	pf := sc.buf(depth, seg)
	t.findPositions(v, keys[l:r], pf, sc)
	for _, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			v.exists[p>>1] = false
		}
	}
	if v.isLeaf() {
		return v
	}
	for i, j := 0, 0; i < seg; i = j {
		j = runEnd(pf, i)
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.removeRec(v.children[c], keys, l+i, l+j, sc, depth+1)
		}
	}
	return v
}
