package core

import (
	"sync"

	"repro/internal/arena"
	"repro/internal/iindex"
	"repro/internal/parallel"
)

// seqSegCutoff is the sub-batch size below which a batched traversal
// stops forking and switches to the allocation-free sequential path.
// Small segments gain nothing from parallelism — the fan-out above
// them already saturates the pool — while per-node buffer allocations
// on the hot path cost more than the work they support.
const seqSegCutoff = 512

// scratch holds one reusable position buffer per recursion depth for a
// sequential subtree walk. A parent's buffer stays live while its
// children run, so buffers cannot be shared across depths, but sibling
// subtrees at the same depth reuse the same storage. Whole walkers —
// level buffers attached — are pooled per tree (treeArena.seqScr), so
// consecutive sequential segments reuse both the buffers and the
// levels spine; the arena free list only backs buffer growth.
type scratch struct {
	src    *arena.Scratch[int32]
	owner  *sync.Pool // nil when buffer reuse is disabled
	levels [][]int32
}

// newScratch borrows a walker from the tree's pool (or builds a fresh
// one under DisableBufferReuse). Callers must pair it with release()
// once the walk has fully returned.
func (t *Tree[K, V]) newScratch() *scratch {
	if t.cfg.DisableBufferReuse {
		return &scratch{src: &t.ar.i32s}
	}
	if v := t.ar.seqScr.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{src: &t.ar.i32s, owner: &t.ar.seqScr}
}

func (s *scratch) buf(depth, n int) []int32 {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[depth]) < n {
		s.src.Put(s.levels[depth])
		s.levels[depth] = s.src.Get(n) //pbist:owner — the walker retains level buffers; release() returns them
	}
	return s.levels[depth][:n]
}

// release returns the walker — buffers still attached — to its pool.
// The scratch must not be used afterwards.
func (s *scratch) release() {
	if s.owner == nil {
		for _, b := range s.levels {
			s.src.Put(b)
		}
		s.levels = nil
		return
	}
	s.owner.Put(s)
}

// findPositionsSeq is findPositions without parallel loops: it fills
// pf[i] = pos<<1 | found for keys[l:r) against v.rep.
func (t *Tree[K, V]) findPositionsSeq(v *node[K, V], keys []K, l, r int, pf []int32) {
	rep := v.rep
	if t.cfg.Traverse == TraverseRank {
		for i := l; i < r; i++ {
			ub := parallel.UpperBound(rep, keys[i])
			if ub > 0 && rep[ub-1] == keys[i] {
				pf[i-l] = int32(ub-1)<<1 | 1
			} else {
				pf[i-l] = int32(ub) << 1
			}
		}
		return
	}
	if v.isLeaf() {
		for i := l; i < r; i++ {
			pos, found := iindex.InterpolationSearch(rep, keys[i])
			pf[i-l] = pack(pos, found)
		}
		return
	}
	idx := &v.idx
	for i := l; i < r; i++ {
		pos, found := iindex.Find(rep, idx, keys[i])
		pf[i-l] = pack(pos, found)
	}
}

func pack(pos int, found bool) int32 {
	if found {
		return int32(pos)<<1 | 1
	}
	return int32(pos) << 1
}

// containsSeq resolves membership of keys[l:r) in v's subtree without
// allocating: positions live in the scratch arena and runs are found
// by a linear scan.
func (t *Tree[K, V]) containsSeq(v *node[K, V], keys []K, l, r int, result []bool, sc *scratch, depth int) {
	if v == nil {
		return
	}
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	for i, p := range pf {
		if p&1 == 1 {
			result[l+i] = v.exists[p>>1]
		}
	}
	if v.isLeaf() {
		return
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			t.containsSeq(v.children[pf[i]>>1], keys, l+i, l+j, result, sc, depth+1)
		}
		i = j
	}
}

// getSeq is getRec on the sequential path: membership plus a value
// read for every key found live.
func (t *Tree[K, V]) getSeq(v *node[K, V], keys []K, l, r int, vals []V, found []bool, sc *scratch, depth int) {
	if v == nil {
		return
	}
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	for i, p := range pf {
		if p&1 == 1 && v.exists[p>>1] {
			found[l+i] = true
			vals[l+i] = v.vals[p>>1]
		}
	}
	if v.isLeaf() {
		return
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			t.getSeq(v.children[pf[i]>>1], keys, l+i, l+j, vals, found, sc, depth+1)
		}
		i = j
	}
}

// insertSeq is insertRec on the sequential path.
func (t *Tree[K, V]) insertSeq(v *node[K, V], keys []K, vals []V, l, r int, sc *scratch, depth int) *node[K, V] {
	if v == nil {
		return t.buildIdeal(keys[l:r], vals[l:r])
	}
	k := r - l
	if t.rebuildDue(v, k) {
		root := t.rebuildMerged(v, keys, vals, l, r)
		t.retireSubtree(v)
		return root
	}
	v = t.owned(v)
	v.modCnt += k
	v.size += k
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	found := 0
	for i, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			v.exists[p>>1] = true // revive (§6), storing the new value
			v.vals[p>>1] = vals[l+i]
			found++
		}
	}
	if v.isLeaf() {
		if found < seg {
			var grew bool
			v.rep, v.vals, v.exists, grew = mergeLeafPF(v.rep, v.vals, v.exists, keys[l:r], vals[l:r], pf, seg-found, t.cfg.LeafSlack)
			if grew {
				t.ar.leafGrows.Add(1)
			}
		}
		return v
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.insertSeq(v.children[c], keys, vals, l+i, l+j, sc, depth+1)
		}
		i = j
	}
	return v
}

// updateSeq is updateRec on the sequential path: overwrite the value
// of every (live) key at the node whose Rep holds it, copying
// out-of-generation nodes first and returning the possibly copied
// subtree root.
func (t *Tree[K, V]) updateSeq(v *node[K, V], keys []K, vals []V, l, r int, sc *scratch, depth int) *node[K, V] {
	if v == nil {
		return nil
	}
	v = t.owned(v)
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	for i, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			v.vals[p>>1] = vals[l+i]
		}
	}
	if v.isLeaf() {
		return v
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.updateSeq(v.children[c], keys, vals, l+i, l+j, sc, depth+1)
		}
		i = j
	}
	return v
}

// removeSeq is removeRec on the sequential path.
func (t *Tree[K, V]) removeSeq(v *node[K, V], keys []K, l, r int, sc *scratch, depth int) *node[K, V] {
	k := r - l
	if t.rebuildDue(v, k) {
		root := t.rebuildSubtracted(v, keys, l, r)
		t.retireSubtree(v)
		return root
	}
	v = t.owned(v)
	v.modCnt += k
	v.size -= k
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	for _, p := range pf {
		if p&1 == 1 {
			t.ownSlots(v)
			v.exists[p>>1] = false
		}
	}
	if v.isLeaf() {
		return v
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			c := pf[i] >> 1
			v.children[c] = t.removeSeq(v.children[c], keys, l+i, l+j, sc, depth+1)
		}
		i = j
	}
	return v
}

// mergeLeafPF merges the physically absent batch pairs into a leaf's
// rep/vals/exists triple. A nil pf means the whole batch is absent
// (the parallel insertion path pre-filters); otherwise entries with
// the found bit set were revived in place and are skipped. absent is
// the number of pairs that will actually be written.
//
// When the leaf's arrays have spare capacity the merge runs in place
// (backward, so sources are consumed before being overwritten);
// otherwise fresh arrays are allocated with slack·n capacity
// (Config.LeafSlack), so the next few merges into the same leaf cost
// nothing — grew reports that reallocation, feeding the leaf-growth
// counter the leafslack experiment sweeps. Chunk-carved arrays are
// capacity-clamped and therefore always take the allocating path on
// their first merge, which is what keeps leaf growth out of shared
// chunk storage. On a publishing tree the leaf is a path copy of this
// epoch (owned), whose private arrays already hold one more key plus
// the same slack, so a single-key insert merges in place; a frozen
// leaf's spare capacity is never written, because the merge only ever
// runs on the copy. The arrays are leaf-retained either way, so they
// never come from recycled scratch.
func mergeLeafPF[K iindex.Numeric, V any](rep []K, vals []V, exists []bool, batchK []K, batchV []V, pf []int32, absent int, slack float64) ([]K, []V, []bool, bool) {
	skip := func(j int) bool { return pf != nil && pf[j]&1 == 1 }
	n := len(rep) + absent
	if cap(rep) >= n && cap(vals) >= n && cap(exists) >= n {
		i := len(rep) - 1
		rep, vals, exists = rep[:n], vals[:n], exists[:n]
		w := n - 1
		for j := len(batchK) - 1; j >= 0; j-- {
			if skip(j) {
				continue // revived in place; already present in rep
			}
			for i >= 0 && rep[i] > batchK[j] {
				rep[w] = rep[i]
				vals[w] = vals[i]
				exists[w] = exists[i]
				i--
				w--
			}
			rep[w] = batchK[j]
			vals[w] = batchV[j]
			exists[w] = true
			w--
		}
		return rep, vals, exists, false
	}
	grown := leafGrowCap(n, slack) // headroom for in-place follow-up merges
	nr := make([]K, 0, grown)
	nv := make([]V, 0, grown)
	ne := make([]bool, 0, grown)
	i, j := 0, 0
	for i < len(rep) && j < len(batchK) {
		if skip(j) {
			j++ // revived in place; already present in rep
			continue
		}
		if rep[i] < batchK[j] {
			nr = append(nr, rep[i])
			nv = append(nv, vals[i])
			ne = append(ne, exists[i])
			i++
		} else {
			nr = append(nr, batchK[j])
			nv = append(nv, batchV[j])
			ne = append(ne, true)
			j++
		}
	}
	for ; i < len(rep); i++ {
		nr = append(nr, rep[i])
		nv = append(nv, vals[i])
		ne = append(ne, exists[i])
	}
	for ; j < len(batchK); j++ {
		if skip(j) {
			continue
		}
		nr = append(nr, batchK[j])
		nv = append(nv, batchV[j])
		ne = append(ne, true)
	}
	return nr, nv, ne, true
}

// leafGrowCap is the capacity of freshly allocated leaf arrays for n
// keys: n plus the Config.LeafSlack headroom that lets the next few
// merges into the leaf run in place.
func leafGrowCap(n int, slack float64) int {
	return n + int(float64(n)*(slack-1))
}
