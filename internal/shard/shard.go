// Package shard implements the partitioning machinery behind the
// sharded super-tree frontend (pbist.Sharded): partition policies that
// assign every key to one of N independent trees, and the scatter step
// that splits a batch into per-shard sub-batches.
//
// The design follows the N-independent-trees-behind-one-facade recipe
// of parallel B+-tree frontends: instead of scaling one tree's
// synchronization, the key space is partitioned and each partition is
// served by its own single-writer engine, so N partitions sustain N
// concurrent epochs. This package is deliberately engine-agnostic —
// it only knows keys, positions, and shard indexes; the facade in
// pbist wires the partitions to core trees and combiners.
//
// Two policies are provided:
//
//   - Ranges partitions by key interval: shard i owns the keys between
//     two boundary values (fence keys). Partition order then equals key
//     order (Ordered reports true), so cross-shard ordered reads —
//     Range, Ascend, Keys, Items — concatenate per-shard results
//     without a merge, and whole-tree set algebra can run per shard.
//   - Hashed partitions by a mixed 64-bit hash of the key, trading the
//     ordering property for balance that is immune to key-space skew:
//     any workload spreads uniformly, but ordered reads must merge N
//     sorted sequences.
//
// Split and SplitPairs keep input order within every sub-batch, so
// duplicate keys of one write batch reach their shard in the order the
// caller gave them and resolve last-wins there, exactly as the
// unsharded engine promises.
//
// Bloom provides the optional per-shard point-lookup filter: a
// fixed-size, lock-free (atomic word array) Bloom filter that answers
// "definitely absent" without touching the shard's tree. It is
// one-sided by construction — keys are added on insert and never
// removed, so a hit may be stale after a delete (the lookup proceeds
// and answers correctly) but a miss is always authoritative.
package shard

import (
	"math"
	"math/bits"
)

// Key is the numeric key constraint, mirroring pbist.Key: ordered
// types with an order-preserving conversion to float64 (the same
// property interpolation search relies on, reused here for uniform
// range splitting and hashing).
type Key interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Partitioner assigns every key to exactly one of N shards. Shard
// must be deterministic and total: the same key always maps to the
// same shard, whatever the tree contents. Implementations must be
// safe for concurrent use (both policies here are stateless after
// construction).
type Partitioner[K Key] interface {
	// N reports the shard count.
	N() int
	// Shard returns the owning shard of key, in [0, N()).
	Shard(key K) int
	// Ordered reports whether shard order refines key order: every
	// key of shard i sorts at or before every key of shard i+1. When
	// true, concatenating per-shard sorted sequences in shard order
	// yields a globally sorted sequence.
	Ordered() bool
}

// Ranges is the range partitioner: shard i owns the keys k with
// bounds[i-1] <= k < bounds[i] (shard 0 is unbounded below, the last
// shard unbounded above). It preserves key order across shards, which
// keeps ordered reads and set algebra concatenation-cheap, at the
// price of balance only as good as the boundary choice — use
// NewRangeQuantiles to fit boundaries to observed data, or
// NewRangeUniform when keys are roughly uniform over a known span.
type Ranges[K Key] struct {
	bounds []K // ascending; len = N-1
}

// NewRanges returns a range partitioner with explicit ascending
// boundary keys: n = len(bounds)+1 shards. Equal adjacent bounds are
// permitted and simply yield empty shards.
func NewRanges[K Key](bounds []K) *Ranges[K] {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			panic("shard: NewRanges bounds not ascending")
		}
	}
	return &Ranges[K]{bounds: bounds}
}

// NewRangeUniform returns a range partitioner splitting [lo, hi] into
// n equal-width intervals — the right default when keys are close to
// uniform over a known span (the smooth-distribution regime the
// interpolation tree itself is built for).
func NewRangeUniform[K Key](n int, lo, hi K) *Ranges[K] {
	if n < 1 {
		panic("shard: NewRangeUniform needs n >= 1")
	}
	if hi < lo {
		panic("shard: NewRangeUniform needs lo <= hi")
	}
	bounds := make([]K, n-1)
	flo, fhi := float64(lo), float64(hi)
	for i := range bounds {
		bounds[i] = K(flo + (fhi-flo)*float64(i+1)/float64(n))
	}
	return NewRanges(bounds)
}

// NewRangeQuantiles returns a range partitioner whose boundaries are
// the n-quantiles of a sorted key sample, so each shard starts with an
// equal share of the observed keys whatever their distribution. A
// sample smaller than n produces some empty shards, which is safe.
func NewRangeQuantiles[K Key](n int, sorted []K) *Ranges[K] {
	if n < 1 {
		panic("shard: NewRangeQuantiles needs n >= 1")
	}
	bounds := make([]K, 0, n-1)
	for i := 1; i < n; i++ {
		if len(sorted) == 0 {
			var zero K
			bounds = append(bounds, zero)
			continue
		}
		j := i * len(sorted) / n
		if j >= len(sorted) {
			j = len(sorted) - 1
		}
		bounds = append(bounds, sorted[j])
	}
	return NewRanges(bounds)
}

// N reports the shard count.
func (r *Ranges[K]) N() int { return len(r.bounds) + 1 }

// Shard returns the owning shard: the number of boundaries at or
// below key. It is sort.Search for the first boundary strictly greater
// than key, with the same probe order (so the same answer, NaN keys
// and bounds included), written out because every point operation and
// every batched key routes through it and the closure call of
// sort.Search is a measurable share of a short read.
func (r *Ranges[K]) Shard(key K) int {
	lo, hi := 0, len(r.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key < r.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Ordered reports true: range partitioning refines key order.
func (r *Ranges[K]) Ordered() bool { return true }

// Hashed is the hash partitioner: shard = mix(key) mapped onto [0, n)
// by multiply-shift. Balance is distribution-independent, but shard
// order says nothing about key order (Ordered reports false), so
// ordered cross-shard reads pay an N-way merge.
type Hashed[K Key] struct {
	n int
}

// NewHashed returns a hash partitioner over n shards.
func NewHashed[K Key](n int) *Hashed[K] {
	if n < 1 {
		panic("shard: NewHashed needs n >= 1")
	}
	return &Hashed[K]{n: n}
}

// N reports the shard count.
func (h *Hashed[K]) N() int { return h.n }

// Shard returns the owning shard of key.
func (h *Hashed[K]) Shard(key K) int {
	// Multiply-shift of the mixed hash: hi bits of mix * n, an unbiased
	// map onto [0, n) that needs no modulo.
	hi, _ := bits.Mul64(HashKey(key), uint64(h.n))
	return int(hi)
}

// Ordered reports false: hashing scrambles key order.
func (h *Hashed[K]) Ordered() bool { return false }

// HashKey mixes a key into a 64-bit hash (splitmix64 finalizer over
// the key's float64 image — deterministic, stateless, and identical
// for equal keys, which is all partitioning and filtering need).
// The float zeros compare equal but differ in their sign bit, so -0
// hashes as +0.
func HashKey[K Key](key K) uint64 {
	f := float64(key)
	if f == 0 {
		f = 0
	}
	x := math.Float64bits(f)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Split scatters keys into per-shard sub-batches: parts[s] holds the
// keys owned by shard s, in input order. The sub-batches are carved
// from one backing array of len(keys), so a Split costs O(keys) work
// and a constant number of allocations however many shards there are.
func Split[K Key](p Partitioner[K], keys []K) [][]K {
	// Zero-size values: the value array and its appends cost nothing.
	parts, _ := SplitPairs(p, keys, make([]struct{}, len(keys)))
	return parts
}

// SplitPairs is Split for (key, value) pairs: vparts[s][j] is the
// value of parts[s][j].
func SplitPairs[K Key, V any](p Partitioner[K], keys []K, vals []V) (parts [][]K, vparts [][]V) {
	n := p.N()
	counts := make([]int, n)
	owner := make([]int8, len(keys))
	wide := n > 127
	for i, k := range keys {
		s := p.Shard(k)
		counts[s]++
		if !wide {
			owner[i] = int8(s)
		}
	}
	parts = carve(make([]K, len(keys)), counts)
	vparts = carve(make([]V, len(vals)), counts)
	for i, k := range keys {
		s := int(owner[i])
		if wide {
			s = p.Shard(k)
		}
		parts[s] = append(parts[s], k)
		vparts[s] = append(vparts[s], vals[i])
	}
	return parts, vparts
}

// carve cuts arr into one empty slice per shard, laid end to end with
// capacity counts[s] each, ready to be appended to in place.
func carve[T any](arr []T, counts []int) [][]T {
	out := make([][]T, len(counts))
	off := 0
	for s, c := range counts {
		out[s] = arr[off : off : off+c]
		off += c
	}
	return out
}
