// Package arena provides the memory machinery behind the rebuild-heavy
// batched tree: size-classed recycled scratch buffers (Scratch) and
// contiguous node storage for rebuilt subtrees (Chunk).
//
// The paper's cost model (§7–§8) amortizes rebuilds into O(n) work, but
// a naive implementation turns that work into O(n/LeafCap) separate
// heap allocations per rebuild plus fresh O(n) temporaries on every
// batched operation. The two types here remove both:
//
//   - Scratch[T] hands out []T buffers whose backing arrays are
//     recycled across calls, so steady-state batched operations stop
//     producing short-lived garbage.
//   - Chunk[K, V] lays the rep/vals/exists storage of an entire rebuilt
//     subtree into three contiguous backing arrays that nodes slice
//     into, replacing per-node allocations with one allocation per
//     array — and giving rebuilt subtrees the cache-friendly contiguous
//     layout interpolation search trees are built for.
//
// Scratch is safe for concurrent use: buffers are held in per-worker
// shards, each guarded by its own mutex, so parallel traversals that
// Get and Put from many goroutines at once do not serialize on one
// lock. A buffer must be Put back by at most one holder and never used
// after Put — the usual ownership rule of any free list.
package arena

import (
	"math/bits"
	"math/rand/v2"
	"sync"
)

const (
	// numShards is the number of independent free lists per Scratch
	// (power of two). Callers are spread across shards with a cheap
	// per-goroutine random draw, so concurrent Get/Put from a parallel
	// traversal rarely contend on the same mutex.
	numShards = 8
	// numClasses bounds the recyclable buffer size: class c holds
	// buffers of capacity at least 2^c elements, so buffers up to
	// 2^(numClasses-1) elements participate in recycling and larger
	// requests fall through to plain allocation.
	numClasses = 28
	// maxPerClass bounds how many buffers one shard retains per size
	// class; surplus Puts are dropped for the GC, so an allocation
	// burst (one huge rebuild) cannot pin its high-water mark forever.
	maxPerClass = 4
)

// Scratch is a size-classed, sharded free list of []T buffers. The
// zero value is ready to use. Get returns a buffer of the requested
// length (contents arbitrary — use GetZero where the caller relies on
// zero initialization) and Put recycles one; both are safe for
// concurrent use.
//
// With Disabled set, Get always allocates fresh and Put drops its
// argument, restoring allocate-and-forget semantics bit for bit; the
// flag backs core.Config.DisableBufferReuse, the test-only switch that
// lets every test run under both settings.
type Scratch[T any] struct {
	// Disabled turns the free list off: Get allocates, Put discards.
	// Toggle only while no buffers are outstanding.
	Disabled bool

	shards [numShards]shard[T]
}

type shard[T any] struct {
	mu     sync.Mutex
	free   [numClasses][][]T
	gets   int64
	puts   int64
	reuses int64
	_      [24]byte // keep neighboring shards off one cache line
}

// class returns the size class a request of n elements is served from:
// the smallest c with 2^c >= n. Buffers stored in class c always have
// capacity >= 2^c, so any buffer found there satisfies the request.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a buffer of length n with arbitrary contents. Requests
// beyond the recyclable range (or with the free list disabled) are
// served by a fresh exact-size allocation.
func (s *Scratch[T]) Get(n int) []T {
	c := class(n)
	if s.Disabled || c >= numClasses {
		return make([]T, n)
	}
	// Start at a random shard (spreading concurrent callers), but fall
	// through the remaining shards before giving up: with only a few
	// buffers in circulation, insisting on one shard would miss ~7/8 of
	// the time and allocate, defeating the free list exactly in the
	// common steady state.
	start := rand.Uint32() & (numShards - 1)
	for i := uint32(0); i < numShards; i++ {
		sh := &s.shards[(start+i)&(numShards-1)]
		sh.mu.Lock()
		if i == 0 {
			sh.gets++
		}
		if stack := sh.free[c]; len(stack) > 0 {
			buf := stack[len(stack)-1]
			stack[len(stack)-1] = nil
			sh.free[c] = stack[:len(stack)-1]
			sh.reuses++
			sh.mu.Unlock()
			return buf[:n]
		}
		sh.mu.Unlock()
	}
	// Miss: allocate the full class capacity so the buffer re-enters
	// this class when Put back, whatever length it was requested at.
	return make([]T, n, 1<<c)
}

// GetZero returns a zeroed buffer of length n. Use it wherever the
// caller's algorithm relies on zero initialization (recycled buffers
// come back dirty).
//
//pbist:owner
func (s *Scratch[T]) GetZero(n int) []T {
	buf := s.Get(n)
	clear(buf)
	return buf
}

// Put recycles buf's backing array for a later Get. buf must not be
// used (through any aliasing slice) after Put. nil and zero-capacity
// buffers are ignored, so callers can Put unconditionally.
func (s *Scratch[T]) Put(buf []T) {
	if s.Disabled || cap(buf) == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so a
	// future Get from that class is always satisfied.
	c := bits.Len(uint(cap(buf))) - 1
	if c >= numClasses {
		return
	}
	sh := &s.shards[rand.Uint32()&(numShards-1)]
	sh.mu.Lock()
	sh.puts++
	if len(sh.free[c]) < maxPerClass {
		sh.free[c] = append(sh.free[c], buf[:cap(buf)])
	}
	sh.mu.Unlock()
}

// Balance reports the Get and Put calls that went through the free
// list. Disabled and beyond-class traffic is excluded symmetrically on
// both sides, so for a caller that returns every borrow — the
// arenapair contract pbistvet enforces statically — gets == puts
// whenever no operation is in flight. The borrow-balance regression
// tests assert exactly that after exercising the batched paths.
func (s *Scratch[T]) Balance() (gets, puts int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		gets += sh.gets
		puts += sh.puts
		sh.mu.Unlock()
	}
	return gets, puts
}

// Stats reports the total Get calls served and how many of them reused
// a recycled buffer.
func (s *Scratch[T]) Stats() (gets, reuses int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		gets += sh.gets
		reuses += sh.reuses
		sh.mu.Unlock()
	}
	return gets, reuses
}

// Retained reports the free-list inventory at this instant: how many
// idle buffers the Scratch is holding for reuse and their summed
// capacity in elements. Buffers currently lent out by Get are not
// counted — Retained measures what the free list itself pins.
//
// The structural bound is numShards × numClasses × maxPerClass
// buffers. The core.arena.* retention gauges, and through them the
// sharded retention test, read this number. A combiner uses no
// Scratch: its per-epoch arrays are confined to its goroutine and
// reported by the combine.scratch.* gauges instead.
func (s *Scratch[T]) Retained() (buffers int, elems int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c := range sh.free {
			for _, buf := range sh.free[c] {
				buffers++
				elems += int64(cap(buf))
			}
		}
		sh.mu.Unlock()
	}
	return buffers, elems
}
