package core

import (
	"math/bits"
	"sync"
)

// seqSegCutoff is the sub-batch size at or below which a batched
// traversal stops forking and walks the segment's subtree with plain
// loops on a walker. Small segments gain nothing from parallelism —
// the fan-out above them already saturates the pool — while per-node
// buffer borrows on the hot path cost more than the work they support.
const seqSegCutoff = 512

// sequential reports whether a segment of n keys is walked with plain
// loops on a walker rather than forked: small segments, and every
// segment on a one-worker pool.
func (t *Tree[K, V]) sequential(n int) bool {
	return n <= seqSegCutoff || t.pool.Workers() == 1
}

// scratch is the walker of one sequential segment: a reusable position
// buffer per recursion depth. A parent's buffer stays live while its
// children run, so buffers cannot be shared across depths, but sibling
// subtrees at the same depth reuse the same storage. The buffers are
// the walker's own allocations, and whole walkers — buffers attached —
// are pooled per tree (treeArena.seqScr), so consecutive sequential
// segments reuse both the buffers and the levels spine.
type scratch struct {
	owner  *sync.Pool // nil when buffer reuse is disabled
	levels [][]int32
}

// newScratch borrows a walker from the tree's pool (or builds a fresh
// one under DisableBufferReuse). Callers must pair it with release()
// once the walk has fully returned.
func (t *Tree[K, V]) newScratch() *scratch {
	if t.cfg.DisableBufferReuse {
		return &scratch{}
	}
	if v := t.ar.seqScr.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{owner: &t.ar.seqScr}
}

func (s *scratch) buf(depth, n int) []int32 {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[depth]) < n {
		// Power-of-two capacity, like an arena size class, so a level
		// regrows only logarithmically often.
		s.levels[depth] = make([]int32, n, 1<<bits.Len(uint(n-1)))
	}
	return s.levels[depth][:n]
}

// release returns the walker — buffers still attached — to its pool.
// The scratch must not be used afterwards.
func (s *scratch) release() {
	if s.owner != nil {
		s.owner.Put(s)
	}
}

func pack(pos int, found bool) int32 {
	if found {
		return int32(pos)<<1 | 1
	}
	return int32(pos) << 1
}

// runEnd returns the end of the run of equal positions that starts at
// pf[i]: the keys pf[i:runEnd] route to the same child (or were found
// in the same rep slot).
func runEnd(pf []int32, i int) int {
	j := i + 1
	for j < len(pf) && pf[j] == pf[i] {
		j++
	}
	return j
}

// mergeLeaf merges the live batch keys that pf marks physically
// absent from leaf v, batch positions l, l+1, …, into its
// rep/vals/exists triple (Fig. 11); entries with the found bit set
// were resolved in place and are skipped, as are absent keys that stay
// absent. It returns v, copied first if it was frozen and a key
// merges, and the number of keys merged.
//
// The merge runs in place, backward, so sources are consumed before
// being overwritten. When the leaf's arrays lack the capacity, the
// leaf is first copied into fresh arrays with leafSlack·n capacity,
// so the next few merges into the same leaf cost nothing; that
// reallocation feeds the leaf-growth counter (Stats.LeafGrows).
// Chunk-carved arrays are capacity-clamped and therefore always
// reallocate on their first merge, which is what keeps leaf growth
// out of shared chunk storage.
// On a publishing tree the leaf is a path copy of this epoch (owned),
// whose private arrays already hold one more key plus the same slack,
// so a single-key insert merges without reallocating; a frozen leaf's
// spare capacity is never written, because the merge only ever runs
// on the copy. The arrays are leaf-retained either way, so they never
// come from recycled scratch.
func (t *Tree[K, V]) mergeLeaf(v *node[K, V], l int, pf []int32) (*node[K, V], int) {
	batchK, batchV, live := t.wb.keys[l:], t.wb.vals[l:], t.wb.live[l:]
	fresh := 0
	for j, p := range pf {
		if p&1 == 0 && live[j] {
			fresh++
		}
	}
	if fresh == 0 {
		return v, 0
	}
	v = t.owned(v)
	rep, vals, exists := v.rep, v.vals, v.exists
	n := len(rep) + fresh
	if cap(rep) < n || cap(vals) < n || cap(exists) < n {
		t.ar.leafGrows.Add(1)
		c := leafGrowCap(n) // headroom for in-place follow-up merges
		rep = append(make([]K, 0, c), rep...)
		vals = append(make([]V, 0, c), vals...)
		exists = append(make([]bool, 0, c), exists...)
	}
	i := len(rep) - 1
	rep, vals, exists = rep[:n], vals[:n], exists[:n]
	w := n - 1
	for j := len(pf) - 1; j >= 0; j-- {
		if pf[j]&1 == 1 || !live[j] {
			continue // resolved in place, or absent and staying absent
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
	v.rep, v.vals, v.exists = rep, vals, exists
	return v, fresh
}

// leafSlack is the capacity headroom factor of reallocated leaf
// arrays. 1.0 would reallocate on every merge; the slack sweep over
// 1.25, 1.5 and 2.0 (BENCH_leafslack.json) showed no tradeoff worth
// an option.
const leafSlack = 1.5

// leafGrowCap is the capacity of freshly allocated leaf arrays for n
// keys: n plus the leafSlack headroom that lets the next few merges
// into the leaf run in place.
func leafGrowCap(n int) int {
	return n + int(float64(n)*(leafSlack-1))
}
