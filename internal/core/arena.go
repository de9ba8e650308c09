package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/iindex"
)

// treeArena is the tree-owned memory pool: one recycled-scratch free
// list per element type the batched operations need, plus counters for
// the chunked rebuilds. Every temporary the write and read paths
// allocate — position buffers, membership side arrays, sub-batch
// filters, flatten and merge buffers — is drawn from here and returned
// when the operation that needed it completes, so a tree in steady
// state stops producing short-lived garbage: retired flatten buffers
// of one rebuild become the merge buffers of the next.
//
// The arena is owned by exactly one tree and lives as long as it.
// Within one batched operation many pool workers Get and Put
// concurrently; the sharded Scratch free lists make that safe and
// cheap. Buffers never cross trees (each tree has its own arena), so
// two trees sharing a parallel.Pool can run batched operations
// concurrently without ever observing each other's scratch memory.
type treeArena[K iindex.Numeric, V any] struct {
	keys  arena.Scratch[K]
	vals  arena.Scratch[V]
	bools arena.Scratch[bool]
	i32s  arena.Scratch[int32]
	ints  arena.Scratch[int]

	// seqScr pools complete sequential-walk scratches (seqpath.go)
	// with their per-depth position buffers attached, so a sequential
	// segment borrows a ready-to-go walker instead of growing one
	// level by level. sync.Pool gives the per-P sharding here.
	seqScr sync.Pool

	chunkBuilds atomic.Int64 // chunked subtree (re)builds
	chunkKeys   atomic.Int64 // key slots laid into chunks
	leafGrows   atomic.Int64 // leaf merges that reallocated (LeafSlack)
}

func newTreeArena[K iindex.Numeric, V any](disabled bool) *treeArena[K, V] {
	a := &treeArena[K, V]{}
	a.keys.Disabled = disabled
	a.vals.Disabled = disabled
	a.bools.Disabled = disabled
	a.i32s.Disabled = disabled
	a.ints.Disabled = disabled
	return a
}

// putKV returns a flatten/merge buffer pair.
//
//pbist:releases
func (a *treeArena[K, V]) putKV(ks []K, vs []V) {
	a.keys.Put(ks)
	a.vals.Put(vs)
}

// scratchStats sums Get/reuse counts across the element types.
func (a *treeArena[K, V]) scratchStats() (gets, reuses int64) {
	for _, f := range []func() (int64, int64){
		a.keys.Stats, a.vals.Stats, a.bools.Stats, a.i32s.Stats, a.ints.Stats,
	} {
		g, r := f()
		gets += g
		reuses += r
	}
	return gets, reuses
}

// retained sums the idle free-list inventory across the element types.
func (a *treeArena[K, V]) retained() (buffers int, elems int64) {
	for _, f := range []func() (int, int64){
		a.keys.Retained, a.vals.Retained, a.bools.Retained,
		a.i32s.Retained, a.ints.Retained,
	} {
		b, e := f()
		buffers += b
		elems += e
	}
	return buffers, elems
}

// newChunk allocates chunked node storage for a subtree of n keys and
// counts it. On a publishing tree (mvcc.go) the three backing arrays
// are drawn from the arena's scratch free lists — the very lists
// drainRetired feeds graced chunks back into — so steady-state epoch
// rebuilds cycle node storage the same way they already cycle flatten
// and merge buffers. The arrays are tree-retained until retirement;
// that deliberate ownership transfer is the //pbist:owner below.
// Non-publishing trees keep exact-size allocations: nothing ever
// retires into their lists, and Get's class-rounded capacity would be
// pure overhead on storage the GC manages anyway.
//
//pbist:owner
func (t *Tree[K, V]) newChunk(n int) arena.Chunk[K, V] {
	t.ar.chunkBuilds.Add(1)
	t.ar.chunkKeys.Add(int64(n))
	if t.mv != nil {
		return arena.Chunk[K, V]{
			Keys:   t.ar.keys.Get(n),
			Vals:   t.ar.vals.Get(n),
			Exists: t.ar.bools.Get(n),
		}
	}
	return arena.NewChunk[K, V](n)
}
