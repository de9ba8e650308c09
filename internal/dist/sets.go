package dist

import (
	"fmt"

	"repro/internal/parallel"
)

// shardSize is the number of draws handled by one parallel shard, and
// blockSize the number of range positions scanned per HalfDense block.
// Both are fixed (not derived from the pool) so output is identical at
// every worker count.
const (
	shardSize = 1 << 15
	blockSize = 1 << 16
)

// pool is the parallelism used by the generators. Generation is pure
// throughput work, so the machine pool is the right default; outputs
// do not depend on it.
var pool = parallel.NewMachinePool()

// checkSet validates the common (n, lo, hi) arguments of the set
// generators: the range must be non-empty and hold n distinct keys.
func checkSet(name string, n int, lo, hi int64) {
	if n < 0 {
		panic(fmt.Sprintf("dist: %s with negative n=%d", name, n))
	}
	if hi < lo {
		panic(fmt.Sprintf("dist: %s with empty range [%d,%d]", name, lo, hi))
	}
	if span := spanOf(lo, hi); span != 0 && uint64(n) > span {
		panic(fmt.Sprintf("dist: %s wants %d distinct keys from a range of %d", name, n, span))
	}
}

// UniformSet returns exactly n distinct keys drawn uniformly from
// [lo, hi], sorted ascending. This is the smooth distribution of §9:
// the regime where interpolation search attains O(m·log log n).
func UniformSet(r *RNG, n int, lo, hi int64) []int64 {
	checkSet("UniformSet", n, lo, hi)
	return distinctSet(r, n, lo, hi, func(rr *RNG) int64 { return rr.InRange(lo, hi) })
}

// distinctSet draws keys via draw until it holds exactly n distinct
// values in [lo, hi], returned sorted. The first (large) round is
// generated shard-parallel from streams forked off r in a fixed order;
// top-up rounds replace collisions. If draw is too collision-prone to
// converge (a very skewed draw near its support size), the remainder
// is filled with the smallest absent keys, keeping the result exact
// and deterministic.
func distinctSet(r *RNG, n int, lo, hi int64, draw func(*RNG) int64) []int64 {
	if n == 0 {
		return []int64{}
	}
	keys := drawShards(r, n, draw)
	keys = parallel.SortedDedup(pool, keys)

	for round := 0; len(keys) < n && round < 64; round++ {
		extra := drawShards(r, n-len(keys), draw)
		extra = parallel.SortedDedup(pool, extra)
		keys = union(keys, extra)
	}
	if len(keys) < n {
		keys = fillAbsent(keys, n, lo, hi)
	}
	return keys
}

// drawShards produces n draws, split into fixed-size shards that run
// on the package pool. Shard streams are forked from r sequentially,
// so the output is independent of scheduling.
func drawShards(r *RNG, n int, draw func(*RNG) int64) []int64 {
	out := make([]int64, n)
	shards := (n + shardSize - 1) / shardSize
	rngs := make([]*RNG, shards)
	for i := range rngs {
		rngs[i] = r.Fork()
	}
	parallel.For(pool, shards, 1, func(s int) {
		lo := s * shardSize
		hi := min(lo+shardSize, n)
		rr := rngs[s]
		for i := lo; i < hi; i++ {
			out[i] = draw(rr)
		}
	})
	return out
}

// fillAbsent pads sorted distinct keys up to n elements with the
// smallest keys of [lo, hi] not already present. checkSet has already
// guaranteed the range holds n distinct keys, so the walk terminates
// before running past hi.
func fillAbsent(keys []int64, n int, lo, hi int64) []int64 {
	fills := make([]int64, 0, n-len(keys))
	i := 0
	for next := lo; len(fills) < n-len(keys); next++ {
		for i < len(keys) && keys[i] < next {
			i++
		}
		if i < len(keys) && keys[i] == next {
			continue
		}
		fills = append(fills, next)
	}
	return union(keys, fills)
}

// union returns the sorted union of two sorted duplicate-free key
// sets on the package pool.
func union(a, b []int64) []int64 {
	out, _ := parallel.UnionKVInto(pool, a, make([]struct{}, len(a)), b, make([]struct{}, len(b)), nil, nil)
	return out
}

// HalfDense returns every integer of [lo, hi] independently with
// probability p, sorted ascending. With p = ½ this is the paper's §9
// initialization: a half-dense universe whose gaps are geometric, the
// friendliest possible input for interpolation. The scan is done in
// fixed-size blocks, each with its own derived stream, so the result
// is reproducible at any parallelism.
func HalfDense(r *RNG, lo, hi int64, p float64) []int64 {
	if hi < lo {
		panic(fmt.Sprintf("dist: HalfDense with empty range [%d,%d]", lo, hi))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("dist: HalfDense with density %v outside [0,1]", p))
	}
	if p == 0 {
		return []int64{}
	}
	span := spanOf(lo, hi)
	blocks := int((span + blockSize - 1) / blockSize)
	base := r.Uint64()
	parts := make([][]int64, blocks)
	parallel.For(pool, blocks, 1, func(b int) {
		rr := NewRNG(splitmix64(base ^ uint64(b)*0x9e3779b97f4a7c15))
		start := lo + int64(b)*blockSize
		end := hi
		if uint64(hi)-uint64(start) >= blockSize { // avoids start+blockSize overflow
			end = start + blockSize - 1
		}
		part := make([]int64, 0, int(float64(blockSize)*p)+16)
		for k := start; ; k++ {
			if rr.Float64() < p {
				part = append(part, k)
			}
			if k == end { // end may be math.MaxInt64; a k <= end loop would spin
				break
			}
		}
		parts[b] = part
	})
	return concat(parts)
}

// concat joins per-block outputs, copying blocks in parallel. Blocks
// are produced in range order, so the result is globally sorted.
func concat(parts [][]int64) []int64 {
	offsets := make([]int, len(parts)+1)
	for i, p := range parts {
		offsets[i+1] = offsets[i] + len(p)
	}
	out := make([]int64, offsets[len(parts)])
	parallel.For(pool, len(parts), 1, func(i int) {
		copy(out[offsets[i]:], parts[i])
	})
	return out
}
