// Package shard implements the partitioning machinery behind the
// sharded super-tree frontend (pbist.Sharded): the range partition
// that assigns every key to one of N independent trees, the cut that
// splits a sorted bulk load at the shard bounds, and the scatter step
// that splits a write batch into per-shard sub-batches.
//
// The design follows the N-independent-trees-behind-one-facade recipe
// of parallel B+-tree frontends: instead of scaling one tree's
// synchronization, the key space is partitioned and each partition is
// served by its own single-writer engine, so N partitions sustain N
// concurrent epochs. This package is deliberately engine-agnostic —
// it only knows keys, positions, and shard indexes; the facade in
// pbist wires the partitions to core trees and combiners.
//
// Ranges partitions by key interval: shard i owns the keys between two
// boundary values (fence keys), the order-preserving split by splitter
// keys of bulk operations on search trees. Shard order then equals key
// order, so cross-shard ordered reads — Range, Ascend, Keys, Items —
// concatenate per-shard results without a merge.
//
// Loads cut, and write batches scatter. A bulk load is sorted and
// duplicate-free before it is split, so Cut splits it with one binary
// search per bound and no copy, the splitter-based bulk split of
// parallel search trees. A write batch may come in any order, so
// Split and SplitPairs route it key by key and keep input order within
// every sub-batch: duplicate keys of one write batch reach their shard
// in the order the caller gave them and resolve last-wins there,
// exactly as the unsharded engine promises.
package shard

// Key is the numeric key constraint, mirroring pbist.Key: ordered
// types with an order-preserving conversion to float64 (the same
// property interpolation search relies on, reused here for uniform
// range splitting).
type Key interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
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

// Cut returns the N+1 offsets at which the ascending duplicate-free
// slice sorted crosses the bounds: shard s owns sorted[off[s]:off[s+1]],
// off[0] = 0 and off[N] = len(sorted). Each inner offset is a
// lower-bound search with Shard's own key < bound comparison, so
// signed zeros, infinities and the empty shards between equal bounds
// come out exactly as Shard routes them key by key. It costs
// O(N·log n) comparisons and copies nothing: bulk loads, whose input
// is already sorted, split at these offsets instead of scattering.
// sorted must hold no NaN, and the bounds neither.
func (r *Ranges[K]) Cut(sorted []K) []int {
	off := make([]int, len(r.bounds)+2)
	lo := 0
	for i, b := range r.bounds {
		hi := len(sorted)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if sorted[mid] < b {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		off[i+1] = lo
	}
	off[len(off)-1] = len(sorted)
	return off
}

// Split scatters keys into per-shard sub-batches: parts[s] holds the
// keys owned by shard s, in input order. The sub-batches are carved
// from one backing array of len(keys), so a Split costs O(keys) work
// and a constant number of allocations however many shards there are.
func Split[K Key](p *Ranges[K], keys []K) [][]K {
	// Zero-size values: the value array and its appends cost nothing.
	parts, _ := SplitPairs(p, keys, make([]struct{}, len(keys)))
	return parts
}

// SplitPairs is Split for (key, value) pairs: vparts[s][j] is the
// value of parts[s][j]. It is the scatter of write batches, whose
// input may be unsorted; a sorted bulk load is split with Cut instead,
// which neither routes every key nor copies the input.
func SplitPairs[K Key, V any](p *Ranges[K], keys []K, vals []V) (parts [][]K, vparts [][]V) {
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
