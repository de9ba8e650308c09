package core

import (
	"time"

	"repro/internal/iindex"
	"repro/internal/parallel"
)

// writeBatch is the batch one ApplyResolved call applies. keys is
// sorted and duplicate-free; live[i] is the presence of keys[i] after
// the write, and vals[i] its value, read only where live[i]. A batch
// whose keys all write alike (every key an update, an insert or a
// remove) says so in kind, and its counts need no arrays. Otherwise
// ins and rem are the exclusive prefix counts of the batch's inserts
// (absent before, live after) and removes (live before, absent after),
// so any segment's counts cost two subtractions; the presence before
// the write is needed for nothing else.
type writeBatch[K iindex.Numeric, V any] struct {
	keys     []K
	vals     []V
	live     []bool
	kind     batchKind
	ins, rem []int
}

// batchKind says whether a write batch holds one kind of write.
type batchKind uint8

const (
	mixedWrites batchKind = iota // counts from ins/rem
	onlyUpdates
	onlyInserts
	onlyRemoves
)

// kindOf is the kind of a resolved batch: mixedWrites as soon as one
// key writes unlike the first.
func kindOf(found, live []bool) batchKind {
	for i := range found {
		if found[i] != found[0] || live[i] != live[0] {
			return mixedWrites
		}
	}
	switch {
	case found[0] == live[0]:
		return onlyUpdates
	case live[0]:
		return onlyInserts
	}
	return onlyRemoves
}

// counts returns the inserts and removes among keys[l:r).
func (b *writeBatch[K, V]) counts(l, r int) (ins, rem int) {
	switch b.kind {
	case onlyUpdates:
		return 0, 0
	case onlyInserts:
		return r - l, 0
	case onlyRemoves:
		return 0, r - l
	}
	return b.ins[r] - b.ins[l], b.rem[r] - b.rem[l]
}

// writeSlot gives rep slot s of v the post-write state of batch key
// i: an update overwrites the value, an insert revives a logically
// removed slot (§6, Fig. 13), a remove marks the slot removed (§6,
// Fig. 12). The value slot of a removed key is reclaimed by the next
// rebuild (§7).
func (b *writeBatch[K, V]) writeSlot(v *node[K, V], s int32, i int) {
	v.exists[s] = b.live[i]
	if b.live[i] {
		v.vals[s] = b.vals[i]
	}
}

// writeKind is the contribution of one key to the insert and remove
// counts.
func writeKind(found, live bool) (ins, rem int) {
	switch {
	case found == live:
		return 0, 0
	case live:
		return 1, 0
	default:
		return 0, 1
	}
}

// ApplyResolved applies a batch of writes whose presence the caller
// has already resolved: keys is sorted and duplicate-free, found[i]
// says whether keys[i] is live before the write and live[i] whether
// it is live after, with value vals[i] (read only where live[i]).
// Every key must write, found[i] || live[i]; the caller drops the keys
// that need none. One §5–§6 traversal (writeRec) applies updates,
// inserts and removes together. It runs no membership traversal of
// its own, so the caller's presence is trusted: a wrong one corrupts
// the size accounting. It never retains a batch slice. It returns the
// keys the §7.1 rebuilds it triggered laid down, which the combining
// frontend records in its epoch trace.
//
// PutBatched is its presence filter plus a call to it, and the
// combining frontend calls it directly with the presence its epoch's
// read phase resolved. Only a batch that mixes kinds of write borrows
// prefix counts. InsertBatched and RemoveBatched, whose filtered
// batches hold one kind of write, call the same traversal through
// applyWrites without building presence flags.
func (t *Tree[K, V]) ApplyResolved(keys []K, vals []V, found, live []bool) (rebuildKeys int) {
	m := len(keys)
	if len(vals) != m || len(found) != m || len(live) != m {
		panic("core: ApplyResolved keys/vals/found/live length mismatch")
	}
	if m == 0 {
		return 0
	}
	if kind := kindOf(found, live); kind != mixedWrites {
		return t.applyWrites(writeBatch[K, V]{keys: keys, vals: vals, live: live, kind: kind})
	}
	// One exclusive scan over both halves: the remove half comes out
	// offset by the insert total, which every difference cancels.
	cnt := t.ar.ints.Get(2 * (m + 1))
	ins, rem := cnt[:m+1], cnt[m+1:]
	if t.sequential(m) {
		for i := range m {
			ins[i], rem[i] = writeKind(found[i], live[i])
		}
	} else {
		parallel.For(t.pool, m, 0, func(i int) {
			ins[i], rem[i] = writeKind(found[i], live[i])
		})
	}
	ins[m], rem[m] = 0, 0
	parallel.ScanInPlace(t.pool, cnt)
	// The batch holds the counts only until applyWrites returns, before
	// cnt returns to the arena.
	n := t.applyWrites(writeBatch[K, V]{keys: keys, vals: vals, live: live, ins: ins, rem: rem}) //pbist:owner
	t.ar.ints.Put(cnt)
	return n
}

// applyWrites runs the one §5–§6 traversal of ApplyResolved over b and
// returns the keys the rebuilds it triggered laid down. t.wb holds b
// only for the traversal.
func (t *Tree[K, V]) applyWrites(b writeBatch[K, V]) (rebuildKeys int) {
	if len(b.keys) == 0 {
		return 0
	}
	before := t.rebuiltKeys.Load()
	t.wb = b
	t.dirty = true
	t.root = t.writeRec(t.root, 0, len(b.keys), nil, 0)
	t.wb = writeBatch[K, V]{}
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
// rebuilt ideally en route (§7.1). The membership side array, the
// filtered sub-batch and its flags are arena scratch with this call's
// lifetime.
//
// InsertBatched(B) is set union: A.InsertBatched(B) makes A = A ∪ B
// (§2.2).
func (t *Tree[K, V]) InsertBatched(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	present := t.ar.bools.GetZero(len(keys))
	t.ContainsBatchedInto(keys, present)
	freshBuf := t.ar.keys.Get(len(keys))
	fresh := parallel.FilterIndexInto(t.pool, keys, freshBuf, func(i int) bool { return !present[i] })
	t.ar.bools.Put(present)
	n := len(fresh)
	zeroV := t.ar.vals.GetZero(n)
	live := t.trues(n)
	t.applyWrites(writeBatch[K, V]{keys: fresh, vals: zeroV, live: live, kind: onlyInserts}) //pbist:owner
	t.ar.vals.Put(zeroV)
	t.ar.bools.Put(live)
	t.ar.keys.Put(freshBuf)
	return n
}

// PutBatched upserts every (keys[i], vals[i]) pair of the sorted
// duplicate-free batch and returns the number of keys that were newly
// inserted (as opposed to overwritten). One membership traversal
// resolves each key's presence, and every key is live after the
// write, so the whole batch goes to ApplyResolved unfiltered: live
// keys take their new value in place, absent ones the §5 insertion
// path with their values riding alongside. The presence and liveness
// flags are arena scratch scoped to this call.
func (t *Tree[K, V]) PutBatched(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("core: PutBatched keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0
	}
	before := t.Len()
	present := t.ar.bools.GetZero(len(keys))
	t.ContainsBatchedInto(keys, present)
	live := t.trues(len(keys))
	t.ApplyResolved(keys, vals, present, live)
	t.ar.bools.Put(present)
	t.ar.bools.Put(live)
	return t.Len() - before
}

// RemoveBatched deletes every key of the sorted duplicate-free batch
// from the tree and returns the number of keys actually removed (absent
// keys are skipped). It implements §6: the batch is filtered to the
// keys currently present, then the traversal marks each of them
// logically removed in the Exists array of the node whose Rep holds it
// (Fig. 12). Space — including the value slots — is reclaimed by the
// next rebuild of an enclosing subtree (§7). The filter is one
// membership traversal; the removal is ApplyResolved's. The membership
// side array, the filtered batch and its flags are arena scratch with
// this call's lifetime.
//
// RemoveBatched(B) is set difference: A.RemoveBatched(B) makes
// A = A \ B (§2.2).
func (t *Tree[K, V]) RemoveBatched(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	present := t.ar.bools.GetZero(len(keys))
	t.ContainsBatchedInto(keys, present)
	doomedBuf := t.ar.keys.Get(len(keys))
	doomed := parallel.FilterIndexInto(t.pool, keys, doomedBuf, func(i int) bool { return present[i] })
	t.ar.bools.Put(present)
	n := len(doomed)
	unread := t.ar.vals.Get(n) // no key is live after: values are never read
	live := t.ar.bools.GetZero(n)
	t.applyWrites(writeBatch[K, V]{keys: doomed, vals: unread, live: live, kind: onlyRemoves}) //pbist:owner
	t.ar.vals.Put(unread)
	t.ar.bools.Put(live)
	t.ar.keys.Put(doomedBuf)
	return n
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
// possibly replaced subtree root. A key found in a node's rep takes
// its post-write state in that slot (writeSlot); keys routed to a
// child descend; at a leaf, the keys its rep lacks are all inserts and
// merge in (Fig. 11). The segment's insert and remove counts drive
// size, modCnt and the §7.1 rebuild check before anything below v is
// touched. sc is the walker of the sequential segment the call
// belongs to, nil while the segment is walked in parallel; see
// getRec.
func (t *Tree[K, V]) writeRec(v *node[K, V], l, r int, sc *scratch, depth int) *node[K, V] {
	b := &t.wb
	if v == nil {
		// Empty range: every key routed here is absent, so an insert;
		// the segment becomes a fresh ideal subtree.
		return t.buildIdeal(b.keys[l:r], b.vals[l:r])
	}
	seg := r - l
	ins, rem := b.counts(l, r)
	if t.rebuildDue(v, ins+rem) {
		// §7.1 step 2: the recursion stops here for this subtree.
		root := t.rebuildWith(v, l, r, ins, rem)
		t.retireSubtree(v)
		return root
	}
	v = t.owned(v)
	v.modCnt += ins + rem
	v.size += ins - rem

	if sc == nil && !t.sequential(seg) {
		pf := t.ar.i32s.Get(seg)
		defer t.ar.i32s.Put(pf)
		t.findPositions(v, b.keys[l:r], pf, nil)
		t.ownSlots(v)
		parallel.For(t.pool, seg, 0, func(i int) {
			if pf[i]&1 == 1 {
				b.writeSlot(v, pf[i]>>1, l+i)
			}
		})
		if v.isLeaf() {
			t.mergeLeaf(v, b.keys[l:r], b.vals[l:r], pf)
			return v
		}
		children := v.children
		t.forEachChildRun(pf, func(lo, hi int, child int) {
			children[child] = t.writeRec(children[child], l+lo, l+hi, nil, 0)
		})
		return v
	}
	if sc == nil {
		sc = t.newScratch()
		defer sc.release()
	}
	pf := sc.buf(depth, seg)
	t.findPositions(v, b.keys[l:r], pf, sc)
	for i, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			b.writeSlot(v, p>>1, l+i)
		}
	}
	if v.isLeaf() {
		t.mergeLeaf(v, b.keys[l:r], b.vals[l:r], pf)
		return v
	}
	for i, j := 0, 0; i < seg; i = j {
		j = runEnd(pf, i)
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.writeRec(v.children[c], l+i, l+j, sc, depth+1)
		}
	}
	return v
}

// rebuildWith is §7.1 step 2 for the batch segment [l, r) of t.wb,
// which holds ins inserts and rem removes: flatten v, subtract the
// segment's keys (those live before are its updates and removes; the
// rest are absent and subtract nothing), merge in the keys live after
// (updates and inserts), and rebuild ideally. A step whose side is
// empty is skipped, so a segment of inserts only does one merge and a
// segment of removes only one difference. Every temporary is arena
// scratch, returned once buildIdeal has copied the result into chunk
// storage, so consecutive rebuilds cycle the same backing arrays.
func (t *Tree[K, V]) rebuildWith(v *node[K, V], l, r, ins, rem int) *node[K, V] {
	var t0 time.Time
	if t.obs != nil {
		t0 = time.Now()
	}
	b := &t.wb
	seg := r - l
	keys, vals, live := b.keys[l:r], b.vals[l:r], b.live[l:r]
	flatK, flatV := t.flattenScratch(v)
	outK, outV := flatK, flatV
	if ins < seg {
		dk, dv := t.ar.keys.Get(len(outK)), t.ar.vals.Get(len(outV))
		defer t.ar.putKV(dk, dv)
		outK, outV = parallel.DifferenceKVInto(t.pool, outK, outV, keys, vals, dk, dv)
	}
	if rem < seg {
		addK, addV := keys, vals
		if rem > 0 {
			lk, lv := t.ar.keys.Get(seg-rem), t.ar.vals.Get(seg-rem)
			defer t.ar.putKV(lk, lv)
			isLive := func(i int) bool { return live[i] }
			addK = parallel.FilterIndexInto(t.pool, keys, lk, isLive)
			addV = parallel.FilterIndexInto(t.pool, vals, lv, isLive)
		}
		mk, mv := t.ar.keys.Get(len(outK)+len(addK)), t.ar.vals.Get(len(outV)+len(addV))
		defer t.ar.putKV(mk, mv)
		outK, outV = parallel.UnionKVInto(t.pool, outK, outV, addK, addV, mk, mv)
	}
	root := t.labeledBuild(outK, outV)
	t.ar.putKV(flatK, flatV)
	t.recordRebuild(t0, len(outK))
	return root
}
