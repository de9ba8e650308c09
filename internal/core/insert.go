package core

import (
	"time"

	"repro/internal/parallel"
)

// ApplyResolved applies writes whose presence the caller has already
// resolved against the current contents: every updK[i] is live and
// takes updV[i] through the value-overwrite traversal (updateRec),
// every insK[i] is absent and is inserted with insV[i] through the §5
// insertion traversal (insertRec), and every delK[i] is live and is
// removed through the §6 traversal (removeRec). Each batch must be
// sorted and duplicate-free and the three pairwise disjoint; empty
// batches are skipped. It runs no membership traversal or filter and
// borrows no scratch of its own (the traversals borrow their position
// buffers as always), so the caller's presence is trusted: a wrong one
// corrupts the size accounting. It returns the keys the §7.1 rebuilds
// it triggered laid down, which the combining frontend records in its
// epoch trace.
//
// It is the one place the write order lives: PutBatched, InsertBatched
// and RemoveBatched are each their presence filter plus a call to it,
// and the combining frontend calls it directly with the presence its
// epoch's read phase resolved.
func (t *Tree[K, V]) ApplyResolved(updK []K, updV []V, insK []K, insV []V, delK []K) (rebuildKeys int) {
	if len(updK) != len(updV) || len(insK) != len(insV) {
		panic("core: ApplyResolved keys/vals length mismatch")
	}
	before := t.rebuiltKeys.Load()
	if len(updK) > 0 {
		t.dirty = true
		t.root = t.updateRec(t.root, updK, updV, 0, len(updK), nil, 0)
	}
	if len(insK) > 0 {
		t.dirty = true
		t.root = t.insertRec(t.root, insK, insV, 0, len(insK), nil, 0)
	}
	if len(delK) > 0 {
		t.dirty = true
		t.root = t.removeRec(t.root, delK, 0, len(delK), nil, 0)
	}
	return int(t.rebuiltKeys.Load() - before)
}

// InsertBatched adds every key of the sorted duplicate-free batch with
// a zero value and returns the number of keys actually inserted (keys
// already present are skipped, keeping their stored value). It
// implements §5: the batch is first filtered against the current
// contents with one batched membership traversal, then the surviving
// keys traverse to their target leaves, reviving logically removed
// slots on the way (§6, Fig. 13) and merging into leaf Rep arrays
// (Fig. 11). Subtrees whose modification budget is exceeded are
// rebuilt ideally en route (§7.1). The membership side array and the
// filtered sub-batch are arena scratch with this call's lifetime.
//
// InsertBatched(B) is set union: A.InsertBatched(B) makes A = A ∪ B
// (§2.2).
func (t *Tree[K, V]) InsertBatched(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	present := t.ar.bools.GetZero(len(keys))
	t.containsInto(keys, present)
	freshBuf := t.ar.keys.Get(len(keys))
	fresh := parallel.FilterIndexInto(t.pool, keys, freshBuf, func(i int) bool { return !present[i] })
	t.ar.bools.Put(present)
	n := len(fresh)
	zeroV := t.ar.vals.GetZero(n)
	t.ApplyResolved(nil, nil, fresh, zeroV, nil)
	t.ar.vals.Put(zeroV)
	t.ar.keys.Put(freshBuf)
	return n
}

// PutBatched upserts every (keys[i], vals[i]) pair of the sorted
// duplicate-free batch and returns the number of keys that were newly
// inserted (as opposed to overwritten). One membership traversal
// splits the batch against the current contents: keys already live
// take the value-overwrite traversal (no structural change, so no
// rebuild accounting), absent keys take the §5 insertion traversal
// with their values riding alongside (ApplyResolved). Both halves are
// batched; there is no per-key fallback. All split buffers are arena
// scratch scoped to this call — safe because no traversal retains a
// batch slice.
func (t *Tree[K, V]) PutBatched(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("core: PutBatched keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0
	}
	present := t.ar.bools.GetZero(len(keys))
	t.containsInto(keys, present)
	hit := func(i int) bool { return present[i] }
	fresh := func(i int) bool { return !present[i] }
	hitKBuf, hitVBuf := t.ar.keys.Get(len(keys)), t.ar.vals.Get(len(keys))
	freshKBuf, freshVBuf := t.ar.keys.Get(len(keys)), t.ar.vals.Get(len(keys))
	hitK := parallel.FilterIndexInto(t.pool, keys, hitKBuf, hit)
	var hitV []V
	freshK, freshV := keys, vals
	if len(hitK) > 0 {
		hitV = parallel.FilterIndexInto(t.pool, vals, hitVBuf, hit)
		freshK = parallel.FilterIndexInto(t.pool, keys, freshKBuf, fresh)
		freshV = parallel.FilterIndexInto(t.pool, vals, freshVBuf, fresh)
	}
	t.ar.bools.Put(present)
	t.ApplyResolved(hitK, hitV, freshK, freshV, nil)
	t.ar.putKV(hitKBuf, hitVBuf)
	t.ar.putKV(freshKBuf, freshVBuf)
	return len(freshK)
}

// rebuildMerged is §7.1 step 2a, in both forms of the insertion
// recursion: flatten v, merge the triggering sub-batch, rebuild
// ideally. Every temporary is arena scratch: the flatten buffers and
// the merge destination are returned the moment buildIdeal has copied
// the merged pairs into chunk storage, so consecutive rebuilds cycle
// the same backing arrays.
func (t *Tree[K, V]) rebuildMerged(v *node[K, V], keys []K, vals []V, l, r int) *node[K, V] {
	var t0 time.Time
	if t.obs != nil {
		t0 = time.Now()
	}
	flatK, flatV := t.flattenScratch(v)
	n := len(flatK) + (r - l)
	mkBuf := t.ar.keys.Get(n)
	mvBuf := t.ar.vals.Get(n)
	mk, mv := parallel.MergeKVInto(t.pool, flatK, flatV, keys[l:r], vals[l:r], mkBuf, mvBuf)
	root := t.labeledBuild(mk, mv)
	t.ar.putKV(flatK, flatV)
	t.ar.putKV(mkBuf, mvBuf)
	t.recordRebuild(t0, len(mk))
	return root
}

// rebuildSubtracted is §7.1 step 2b, in both forms of the removal
// recursion:
// flatten v, subtract the triggering sub-batch, rebuild ideally, with
// the same scratch lifetimes as rebuildMerged.
func (t *Tree[K, V]) rebuildSubtracted(v *node[K, V], keys []K, l, r int) *node[K, V] {
	var t0 time.Time
	if t.obs != nil {
		t0 = time.Now()
	}
	flatK, flatV := t.flattenScratch(v)
	dkBuf := t.ar.keys.Get(len(flatK))
	dvBuf := t.ar.vals.Get(len(flatV))
	keptK, keptV := parallel.DifferenceKVInto(t.pool, flatK, flatV, keys[l:r], dkBuf, dvBuf)
	root := t.labeledBuild(keptK, keptV)
	t.ar.putKV(flatK, flatV)
	t.ar.putKV(dkBuf, dvBuf)
	t.recordRebuild(t0, len(keptK))
	return root
}

// insertRec inserts keys[l:r) — all logically absent from the tree —
// with their values into subtree v and returns the possibly replaced
// subtree root. sc and depth are containsRec's walker.
func (t *Tree[K, V]) insertRec(v *node[K, V], keys []K, vals []V, l, r int, sc *scratch, depth int) *node[K, V] {
	if v == nil {
		// Empty range: the sub-batch becomes a fresh ideal subtree.
		return t.buildIdeal(keys[l:r], vals[l:r])
	}
	seg := r - l
	if t.rebuildDue(v, seg) {
		// §7.1 step 2a: the recursion stops here for this subtree.
		root := t.rebuildMerged(v, keys, vals, l, r)
		t.retireSubtree(v)
		return root
	}
	v = t.owned(v)
	v.modCnt += seg
	v.size += seg

	// Revive keys that still exist physically but were logically
	// removed (§6), storing the incoming value: they are guaranteed
	// dead here because the batch was filtered against live contents.
	// Leaves then merge in the physically absent pairs (Fig. 11).
	if sc == nil && !t.sequential(seg) {
		pf := t.ar.i32s.Get(seg)
		defer t.ar.i32s.Put(pf)
		t.findPositions(v, keys[l:r], pf, nil)
		t.ownSlots(v)
		exists, vv := v.exists, v.vals
		parallel.For(t.pool, seg, 0, func(i int) {
			if pf[i]&1 == 1 {
				exists[pf[i]>>1] = true
				vv[pf[i]>>1] = vals[l+i]
			}
		})
		if v.isLeaf() {
			t.mergeLeaf(v, keys[l:r], vals[l:r], pf)
			return v
		}
		children := v.children
		t.forEachChildRun(pf, func(lo, hi int, child int) {
			children[child] = t.insertRec(children[child], keys, vals, l+lo, l+hi, nil, 0)
		})
		return v
	}
	if sc == nil {
		sc = t.newScratch()
		defer sc.release()
	}
	pf := sc.buf(depth, seg)
	t.findPositions(v, keys[l:r], pf, sc)
	for i, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			v.exists[p>>1] = true
			v.vals[p>>1] = vals[l+i]
		}
	}
	if v.isLeaf() {
		t.mergeLeaf(v, keys[l:r], vals[l:r], pf)
		return v
	}
	for i, j := 0, 0; i < seg; i = j {
		j = runEnd(pf, i)
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.insertRec(v.children[c], keys, vals, l+i, l+j, sc, depth+1)
		}
	}
	return v
}

// updateRec overwrites the stored values of keys[l:r) — all logically
// present — with vals[l:r) and returns the possibly copied subtree
// root. Value overwrites are not structural modifications: Rep arrays,
// sizes, and the rebuild budget are untouched, so the traversal is
// read-shaped (like containsRec, whose walker sc and depth are) with
// one write per key at the node whose Rep holds it — but on a
// publishing tree even a value write copies out-of-generation nodes,
// so the path to every written slot is returned upward like the
// insertion path. Each batch key is live, so it is found exactly once
// along its root-to-leaf path, at a live slot.
func (t *Tree[K, V]) updateRec(v *node[K, V], keys []K, vals []V, l, r int, sc *scratch, depth int) *node[K, V] {
	if v == nil {
		return nil
	}
	v = t.owned(v)
	seg := r - l
	if sc == nil && !t.sequential(seg) {
		pf := t.ar.i32s.Get(seg)
		defer t.ar.i32s.Put(pf)
		t.findPositions(v, keys[l:r], pf, nil)
		t.ownSlots(v)
		vv := v.vals
		parallel.For(t.pool, seg, 0, func(i int) {
			if pf[i]&1 == 1 {
				vv[pf[i]>>1] = vals[l+i]
			}
		})
		if !v.isLeaf() {
			children := v.children
			t.forEachChildRun(pf, func(lo, hi int, child int) {
				children[child] = t.updateRec(children[child], keys, vals, l+lo, l+hi, nil, 0)
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
	for i, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			v.vals[p>>1] = vals[l+i]
		}
	}
	if v.isLeaf() {
		return v
	}
	for i, j := 0, 0; i < seg; i = j {
		j = runEnd(pf, i)
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.updateRec(v.children[c], keys, vals, l+i, l+j, sc, depth+1)
		}
	}
	return v
}
