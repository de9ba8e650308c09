package core

import (
	"math"

	"repro/internal/arena"
	"repro/internal/iindex"
	"repro/internal/parallel"
)

// buildSeqCutoff is the subtree size below which flattening and ideal
// construction run sequentially: spawning tasks for tiny subtrees costs
// more than the work they contain.
const buildSeqCutoff = 4096

// flatten collects the live keys of subtree v — and their values,
// position-aligned — into freshly allocated sorted arrays (§7.2): O(n)
// work, O(log³ n) span (Theorem 1). Use it when the result escapes to
// the caller (Keys, Items); internal rebuild paths use flattenScratch.
func (t *Tree[K, V]) flatten(v *node[K, V]) ([]K, []V) {
	if v == nil {
		return nil, nil
	}
	outK := make([]K, v.size)
	outV := make([]V, v.size)
	t.fillFlat(v, outK, outV)
	return outK, outV
}

// flattenScratch is flatten into arena-recycled buffers. The result
// must never escape the tree: the caller copies it onward (buildIdeal
// copies every key into chunk storage) and then returns both buffers
// with t.ar.putKV, at which point a retired flatten buffer becomes the
// next rebuild's merge or flatten buffer.
//
//pbist:owner
func (t *Tree[K, V]) flattenScratch(v *node[K, V]) ([]K, []V) {
	if v == nil {
		return nil, nil
	}
	outK := t.ar.keys.Get(v.size)
	outV := t.ar.vals.Get(v.size)
	t.fillFlat(v, outK, outV)
	return outK, outV
}

// fillFlat writes the live keys and values of v into outK/outV, which
// have length v.size. Following §7.2, an inner node with k rep slots
// has 2k+1 key sources — child i is source 2i, rep slot i is source
// 2i+1 — whose output offsets are the exclusive prefix sums of their
// live sizes (Fig. 15). All sources then emit in parallel. The offsets
// buffer lives in the arena only for the duration of this node's fan-
// out (children borrow their own).
func (t *Tree[K, V]) fillFlat(v *node[K, V], outK []K, outV []V) {
	if v.isLeaf() {
		w := 0
		for i, x := range v.rep {
			if v.exists[i] {
				outK[w] = x
				outV[w] = v.vals[i]
				w++
			}
		}
		return
	}
	k := len(v.rep)
	pool := t.pool
	if v.size <= buildSeqCutoff {
		pool = nil
	}
	offsets := t.ar.ints.GetZero(2*k + 1)
	parallel.For(pool, k, 0, func(i int) {
		if c := v.children[i]; c != nil {
			offsets[2*i] = c.size
		}
		if v.exists[i] {
			offsets[2*i+1] = 1
		}
	})
	if c := v.children[k]; c != nil {
		offsets[2*k] = c.size
	}
	parallel.ScanInPlace(pool, offsets)
	parallel.For(pool, 2*k+1, 1, func(s int) {
		if s%2 == 0 {
			if c := v.children[s/2]; c != nil {
				t.fillFlat(c, outK[offsets[s]:offsets[s]+c.size], outV[offsets[s]:offsets[s]+c.size])
			}
		} else if j := s / 2; v.exists[j] {
			outK[offsets[s]] = v.rep[j]
			outV[offsets[s]] = v.vals[j]
		}
	})
	t.ar.ints.Put(offsets)
}

// buildIdeal constructs an ideally balanced IST (Definition 5) over
// sorted duplicate-free keys and their position-aligned values: O(n)
// work and O(log n·log log n) span (Theorem 1). Rep elements are
// spread evenly — k = ⌊√m⌋ slots at positions (i+1)·m/(k+1) — and the
// k+1 children build in parallel. Both inputs are copied into chunk
// storage, never aliased, so callers may keep mutating them.
//
// Storage is chunked (internal/arena.Chunk): every key of the subtree
// lands in exactly one rep slot — inner nodes hold some, leaves the
// rest — so one chunk of exactly m key/value/liveness slots backs the
// whole subtree, and each node's arrays are carved out of it at
// offsets the recursion derives locally. The carve windows of parallel
// siblings are disjoint by construction, so the fill needs no
// synchronization beyond the fork-join itself.
//
// (§7.3 spaces rep elements exactly k apart, which covers the input
// only when m is a perfect square; the even spread is the Definition 5
// reading and is what keeps every child at Θ(√m) keys.)
func (t *Tree[K, V]) buildIdeal(keys []K, vals []V) *node[K, V] {
	m := len(keys)
	if m == 0 {
		return nil
	}
	ch := t.newChunk(m)
	root := t.buildInto(ch, nil, 0, keys, vals)
	// The build root carries the chunk handle so a rebuild of an
	// enclosing subtree can retire the storage (mvcc.go).
	root.chunk = &chunkHandle[K, V]{ch: ch, born: t.writeGen}
	return root
}

// idealFanout returns k, the rep-slot count of an ideal inner node
// over m keys (§7.3): ⌊√m⌋, at least 2.
func idealFanout(m int) int {
	k := int(math.Sqrt(float64(m)))
	if k < 2 {
		k = 2
	}
	return k
}

// idealChild returns the key range [lo, hi) of child i of an ideal
// inner node over m keys with fanout k; for i < k, position hi holds
// rep slot i. This is the single definition of the ideal split:
// buildInto and countIdeal must agree exactly, because countIdeal
// sizes the node slabs buildInto consumes.
func idealChild(m, k, i int) (lo, hi int) {
	lo = 0
	if i > 0 {
		lo = i*m/(k+1) + 1
	}
	hi = m
	if i < k {
		hi = (i + 1) * m / (k + 1)
	}
	return lo, hi
}

// buildInto builds the ideal subtree over keys/vals with its node
// storage carved from ch at [base, base+len(keys)). slab is nil while
// the subtree is built in parallel: its node headers and children
// arrays are allocated one by one and the k+1 children build in
// parallel. The first subtree at or below buildSeqCutoff draws a node
// slab and builds sequentially from there down: its exact node and
// child-pointer counts are precomputed (the ideal split is
// deterministic in m), so the whole subtree's node headers and
// children arrays come from two bulk allocations instead of one or
// two per node.
//
//pbist:owner
func (t *Tree[K, V]) buildInto(ch arena.Chunk[K, V], slab *buildSlab[K, V], base int, keys []K, vals []V) *node[K, V] {
	m := len(keys)
	if m == 0 {
		return nil // empty child range; countIdeal counted no node
	}
	if slab == nil && m <= buildSeqCutoff {
		nn, nc := countIdeal(m, t.cfg.LeafCap)
		slab = &buildSlab[K, V]{
			nodes: make([]node[K, V], nn),
			kids:  make([]*node[K, V], nc),
		}
	}
	v := slab.node()
	if m <= t.cfg.LeafCap {
		t.fillLeaf(v, ch, base, keys, vals)
		return v
	}
	k := idealFanout(m)
	rep, vv, ex := ch.Carve(base, k)
	for i := range ex {
		_, hi := idealChild(m, k, i)
		rep[i], vv[i], ex[i] = keys[hi], vals[hi], true
	}
	children := slab.children(k + 1)
	*v = node[K, V]{
		rep:      rep,
		vals:     vv,
		exists:   ex,
		children: children,
		size:     m,
		initSize: m,
		gen:      t.writeGen,
	}
	// Child i's chunk window starts after this node's k rep slots and
	// the slots of its left siblings: lo keys precede position lo, of
	// which i are rep keys, so the siblings hold lo−i.
	if slab == nil {
		parallel.For(t.pool, k+1, 1, func(i int) {
			lo, hi := idealChild(m, k, i)
			children[i] = t.buildInto(ch, nil, base+k+lo-i, keys[lo:hi], vals[lo:hi])
		})
	} else {
		for i := range children {
			lo, hi := idealChild(m, k, i)
			children[i] = t.buildInto(ch, slab, base+k+lo-i, keys[lo:hi], vals[lo:hi])
		}
	}
	v.idx = iindex.Build(v.rep, t.cfg.IndexSizeFactor)
	return v
}

// fillLeaf initializes v as a leaf over keys/vals with storage carved
// from ch at base.
//
//pbist:owner
func (t *Tree[K, V]) fillLeaf(v *node[K, V], ch arena.Chunk[K, V], base int, keys []K, vals []V) {
	m := len(keys)
	rep, vv, ex := ch.Carve(base, m)
	copy(rep, keys)
	copy(vv, vals)
	for i := range ex {
		ex[i] = true
	}
	*v = node[K, V]{rep: rep, vals: vv, exists: ex, size: m, initSize: m, gen: t.writeGen}
}

// buildSlab doles out node headers and children arrays for one
// sequentially built subtree from two exact-size bulk allocations.
// Like a Chunk, the slab's memory is retained while any node built
// from it is alive. A nil slab allocates each header and array on its
// own, for the nodes buildInto builds in parallel.
type buildSlab[K iindex.Numeric, V any] struct {
	nodes []node[K, V]
	kids  []*node[K, V]
}

func (s *buildSlab[K, V]) node() *node[K, V] {
	if s == nil {
		return new(node[K, V])
	}
	v := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return v
}

func (s *buildSlab[K, V]) children(k int) []*node[K, V] {
	if s == nil {
		return make([]*node[K, V], k)
	}
	c := s.kids[:k:k]
	s.kids = s.kids[k:]
	return c
}

// countIdeal walks the deterministic ideal-split recursion without
// building anything and returns the node and child-pointer counts of
// the subtree buildInto builds for m keys from one slab.
func countIdeal(m, leafCap int) (nodes, kids int) {
	if m == 0 {
		return 0, 0
	}
	if m <= leafCap {
		return 1, 0
	}
	k := idealFanout(m)
	nodes, kids = 1, k+1
	for i := 0; i <= k; i++ {
		lo, hi := idealChild(m, k, i)
		cn, ck := countIdeal(hi-lo, leafCap)
		nodes += cn
		kids += ck
	}
	return nodes, kids
}
