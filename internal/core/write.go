package core

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/iindex"
	"repro/internal/parallel"
)

// writeBatch is the batch one write traversal applies. keys is sorted
// and duplicate-free; live[i] is the presence of keys[i] after the
// write, and vals[i] its value, read only where live[i]. found, when
// non-nil, receives each key's presence before the write.
type writeBatch[K iindex.Numeric, V any] struct {
	keys  []K
	vals  []V
	live  []bool
	found []bool
}

// report records the presence batch key i had before the write.
func (b *writeBatch[K, V]) report(i int, had bool) {
	if b.found != nil {
		b.found[i] = had
	}
}

// ApplyResolved writes a batch of keys whose state after the write the
// caller knows: keys is sorted and duplicate-free, live[i] says
// whether keys[i] is live after the write, with value vals[i] (read
// only where live[i]). One §5–§6 traversal (writeRec) applies the
// updates, inserts and removes together and resolves each key's
// presence on the way down: when found is non-nil, found[i] receives
// whether keys[i] was live before the write (every entry is written).
// A key that was absent and stays absent writes nothing. It never
// retains a batch slice. It returns the keys the §7.1 rebuilds it
// triggered laid down, which the combining frontend records in its
// epoch trace.
//
// The combining frontend calls it once per epoch with every distinct
// key the epoch wrote. PutBatched, InsertBatched and RemoveBatched are
// the same traversal with every key live, or every key dead.
func (t *Tree[K, V]) ApplyResolved(keys []K, vals []V, live, found []bool) (rebuildKeys int) {
	m := len(keys)
	if len(vals) != m || len(live) != m || (found != nil && len(found) != m) {
		panic("core: ApplyResolved keys/vals/live/found length mismatch")
	}
	_, _, rebuildKeys = t.applyWrites(writeBatch[K, V]{keys: keys, vals: vals, live: live, found: found})
	return rebuildKeys
}

// applyWrites runs the one §5–§6 traversal over b and returns the
// inserts and removes it applied and the keys the rebuilds it
// triggered laid down. t.wb holds b only for the traversal, and
// t.recycle is set for a traversal that runs sequentially from the
// root on a publishing tree (see owned). On a
// publishing tree the first write after a publish copies the root, so
// a call that leaves the root in place either wrote nothing or follows
// one that already marked the tree dirty.
func (t *Tree[K, V]) applyWrites(b writeBatch[K, V]) (ins, rem, rebuildKeys int) {
	if len(b.keys) == 0 {
		return 0, 0, 0
	}
	before := t.rebuiltKeys.Load()
	t.wb = b
	t.recycle = t.mv != nil && t.sequential(len(b.keys))
	root, ins, rem := t.writeRec(t.root, 0, len(b.keys), nil, 0)
	if root != t.root {
		t.root, t.dirty = root, true
	}
	t.wb, t.recycle = writeBatch[K, V]{}, false
	return ins, rem, int(t.rebuiltKeys.Load() - before)
}

// InsertBatched adds every key of the sorted duplicate-free batch and
// returns the number of keys that were absent. It is the set's batched
// insert (§5), PutBatched with zero values: the write traversal
// revives logically removed slots (§6, Fig. 13) and merges fresh keys
// into leaf Rep arrays (Fig. 11), and a key already present is
// rewritten with the zero value, which a set (V = struct{}) cannot
// tell apart from skipping it. A tree whose values matter writes
// through PutBatched. The zero values are arena scratch scoped to this
// call.
//
// InsertBatched(B) is set union: A.InsertBatched(B) makes A = A ∪ B
// (§2.2).
func (t *Tree[K, V]) InsertBatched(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	zero := t.ar.vals.GetZero(len(keys))
	n := t.PutBatched(keys, zero)
	t.ar.vals.Put(zero)
	return n
}

// PutBatched upserts every (keys[i], vals[i]) pair of the sorted
// duplicate-free batch and returns the number of keys that were newly
// inserted (as opposed to overwritten). Every key is live after the
// write, so the whole batch goes to the one write traversal: a key it
// finds in a rep takes its new value in place, an absent one the §5
// insertion path with its value riding alongside. The liveness flags
// are arena scratch scoped to this call.
func (t *Tree[K, V]) PutBatched(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("core: PutBatched keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0
	}
	live := t.trues(len(keys))
	ins, _, _ := t.applyWrites(writeBatch[K, V]{keys: keys, vals: vals, live: live}) //pbist:owner
	t.ar.bools.Put(live)
	return ins
}

// RemoveBatched deletes every key of the sorted duplicate-free batch
// from the tree and returns the number of keys actually removed. It is
// §6 in one write traversal with every key dead after the write: a key
// found live in a rep is marked logically removed in that node's
// Exists array (Fig. 12), and an absent key writes nothing, so the
// batch needs no membership filter first. Space — including the value
// slots — is reclaimed by the next rebuild of an enclosing subtree
// (§7). The flags and the unread value array are arena scratch scoped
// to this call.
//
// RemoveBatched(B) is set difference: A.RemoveBatched(B) makes
// A = A \ B (§2.2).
func (t *Tree[K, V]) RemoveBatched(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	unread := t.ar.vals.Get(len(keys)) // no key is live after: values are never read
	live := t.ar.bools.GetZero(len(keys))
	_, rem, _ := t.applyWrites(writeBatch[K, V]{keys: keys, vals: unread, live: live}) //pbist:owner
	t.ar.vals.Put(unread)
	t.ar.bools.Put(live)
	return rem
}

// trues borrows an arena array of n true flags; the caller returns it.
//
//pbist:owner
func (t *Tree[K, V]) trues(n int) []bool {
	b := t.ar.bools.Get(n)
	if t.sequential(n) {
		for i := range b {
			b[i] = true
		}
		return b
	}
	parallel.ForRange(t.pool, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i] = true
		}
	})
	return b
}

// writeRec applies the batch segment [l, r) of t.wb to subtree v
// (Listing 1.2, in its §5 and §6 forms at once) and returns the
// possibly replaced subtree root with the segment's insert and remove
// counts. A key found in a node's rep resolves in that slot
// (writeSlots); keys routed to a child descend; at a leaf, the live
// keys its rep lacks are inserts and merge in (Fig. 11). Each key's
// presence before the write is reported where it resolves. The counts
// fix up size and modCnt once the children return, and drive the
// §7.1 rebuild check there (settle). A frozen node is copied only
// when a write reaches it or its subtree, so keys that write nothing
// copy nothing; a segment walked in parallel copies v up front and
// drops the copy if no key wrote. At a publishing tree's root each
// child slot replaced is logged for the spare-root sync
// (logRootSlot). sc is the walker of the sequential segment the call
// belongs to, nil while the segment is walked in parallel; see getRec.
func (t *Tree[K, V]) writeRec(v *node[K, V], l, r int, sc *scratch, depth int) (*node[K, V], int, int) {
	if v == nil {
		return t.buildLive(l, r)
	}
	seg := r - l
	if sc == nil && !t.sequential(seg) {
		return t.writePar(v, l, r)
	}
	if sc == nil {
		sc = t.newScratch()
		defer sc.release()
	}
	atRoot := v == t.root && t.mv != nil
	pf := sc.buf(depth, seg)
	t.findPositions(v, t.wb.keys[l:r], pf, sc)
	v, ins, rem, _ := t.writeSlots(v, pf, l)
	if v.isLeaf() {
		v, n := t.mergeLeaf(v, l, pf)
		return t.settle(v, ins+n, rem)
	}
	for i, j := 0, 0; i < seg; i = j {
		j = runEnd(pf, i)
		if pf[i]&1 == 1 {
			continue
		}
		c := pf[i] >> 1
		child, ci, cr := t.writeRec(v.children[c], l+i, l+j, sc, depth+1)
		if child != v.children[c] {
			v = t.owned(v)
			v.children[c] = child
			if atRoot {
				t.mv.logRootSlot(t.writeGen, c)
			}
		}
		ins, rem = ins+ci, rem+cr
	}
	return t.settle(v, ins, rem)
}

// writePar is writeRec's parallel form, for a segment too large to
// walk sequentially: it copies v up front, resolves the rep keys in
// parallel blocks and fans out over the child runs, summing the
// counts as they return. When no slot was written (an update counts),
// no child was replaced and nothing was inserted or removed below
// (a leaf merge inserts), it returns v itself and drops the copy, so
// a segment that writes nothing leaves a publishing tree's root in
// place, and a graced spare root the copy took goes back to the
// spares (returnSpare). A root it does write was written past the
// root log, so it raises the log's floor. Its position buffer is
// arena scratch held until the fan-out returns. It is a function of
// its own because its closures capture
// the node: in writeRec, which reassigns v, that capture would move v
// to the heap on every call, sequential ones included.
func (t *Tree[K, V]) writePar(v *node[K, V], l, r int) (*node[K, V], int, int) {
	pf := t.ar.i32s.Get(r - l)
	defer t.ar.i32s.Put(pf)
	t.findPositions(v, t.wb.keys[l:r], pf, nil)
	w := t.owned(v)
	t.ownSlots(w)
	var ins, rem atomic.Int64
	var wrote atomic.Bool
	parallel.ForRange(t.pool, r-l, 0, func(lo, hi int) {
		_, di, dr, wr := t.writeSlots(w, pf[lo:hi], l+lo)
		if wr {
			wrote.Store(true)
		}
		ins.Add(int64(di))
		rem.Add(int64(dr))
	})
	if w.isLeaf() {
		_, n := t.mergeLeaf(w, l, pf)
		ins.Add(int64(n))
	} else {
		children := w.children
		t.forEachChildRun(pf, func(lo, hi int, child int) {
			c, di, dr := t.writeRec(children[child], l+lo, l+hi, nil, 0)
			if c != children[child] {
				children[child] = c
				wrote.Store(true)
			}
			ins.Add(int64(di))
			rem.Add(int64(dr))
		})
	}
	di, dr := int(ins.Load()), int(rem.Load())
	if !wrote.Load() && di+dr == 0 {
		t.returnSpare(v, w)
		return v, 0, 0
	}
	if v == t.root && t.mv != nil {
		t.mv.logFloor = t.writeGen
	}
	return t.settle(w, di, dr)
}

// writeSlots resolves the batch keys at positions l, l+1, … whose
// positions pf packs, against the rep of v: a key found in a slot
// reports the slot's liveness and, unless it was and stays absent,
// gives the slot its post-write state — an update overwrites the
// value, an insert revives a logically removed slot (§6, Fig. 13), a
// remove marks the slot removed (§6, Fig. 12). A key a leaf's rep
// lacks reports absent. It returns v, copied before its first write
// if it was frozen, the inserts and removes it applied, and whether it
// wrote any slot (an update writes one too). The value
// slot of a removed key is reclaimed by the next rebuild (§7). The
// parallel walk calls it per block on a v it already owns, so no call
// copies anything there.
func (t *Tree[K, V]) writeSlots(v *node[K, V], pf []int32, l int) (_ *node[K, V], ins, rem int, wrote bool) {
	b := &t.wb
	leaf := v.isLeaf()
	for i, p := range pf {
		if p&1 == 0 {
			if leaf {
				b.report(l+i, false)
			}
			continue
		}
		s := p >> 1
		had, live := v.exists[s], b.live[l+i]
		b.report(l+i, had)
		if !had && !live {
			continue
		}
		v = t.owned(v)
		t.ownSlots(v)
		wrote = true
		v.exists[s] = live
		if live {
			v.vals[s] = b.vals[l+i]
		}
		switch {
		case had == live:
		case live:
			ins++
		default:
			rem++
		}
	}
	return v, ins, rem, wrote
}

// buildLive is writeRec at an empty child: every key routed there is
// absent, so the live ones are inserts and become a fresh ideal
// subtree, and the rest write nothing.
func (t *Tree[K, V]) buildLive(l, r int) (*node[K, V], int, int) {
	b := &t.wb
	if b.found != nil {
		clear(b.found[l:r])
	}
	keys, vals, live := b.keys[l:r], b.vals[l:r], b.live[l:r]
	if slices.Contains(live, false) {
		lk, lv := t.ar.keys.Get(len(keys)), t.ar.vals.Get(len(keys))
		defer t.ar.putKV(lk, lv)
		isLive := func(i int) bool { return live[i] }
		keys = parallel.FilterIndexInto(t.pool, keys, lk, isLive)
		vals = parallel.FilterIndexInto(t.pool, vals, lv, isLive)
	}
	return t.buildIdeal(keys, vals), len(keys), 0
}

// settle fixes up the size and modification count of v after its
// subtree took ins inserts and rem removes, and runs the §7.1 check on
// those exact counts: a subtree over its budget is rebuilt from its
// post-write contents (rebuild). It returns v or its replacement,
// with the counts passed through.
func (t *Tree[K, V]) settle(v *node[K, V], ins, rem int) (*node[K, V], int, int) {
	if ins+rem == 0 {
		return v, 0, 0
	}
	v = t.owned(v)
	v.size += ins - rem
	if t.rebuildDue(v, ins+rem) {
		return t.rebuild(v), ins, rem
	}
	v.modCnt += ins + rem
	return v, ins, rem
}

// rebuild is §7.1 step 2 for a subtree whose writes are applied:
// flatten v and rebuild its live keys ideally, then retire v's chunks.
// The result is the ideal subtree a check before the descent would
// build over the same contents; checking after costs one descent into
// a subtree that is then rebuilt, which the O(s) rebuild absorbs, and
// a subtree below v that tripped in the same batch is rebuilt twice.
// The flatten buffers are arena scratch, returned once buildIdeal has
// copied the result into chunk storage, so consecutive rebuilds cycle
// the same backing arrays.
func (t *Tree[K, V]) rebuild(v *node[K, V]) *node[K, V] {
	var t0 time.Time
	if t.obs != nil {
		t0 = time.Now()
	}
	flatK, flatV := t.flattenScratch(v)
	root := t.labeledBuild(flatK, flatV)
	t.ar.putKV(flatK, flatV)
	t.recordRebuild(t0, len(flatK))
	t.retireSubtree(v)
	return root
}
