package shard

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
)

func TestRangesShardAssignment(t *testing.T) {
	r := NewRanges([]int64{10, 20, 30})
	if r.N() != 4 {
		t.Fatalf("N = %d, want 4", r.N())
	}
	cases := []struct {
		key  int64
		want int
	}{
		{-5, 0}, {0, 0}, {9, 0},
		{10, 1}, {15, 1}, {19, 1},
		{20, 2}, {29, 2},
		{30, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		if got := r.Shard(c.key); got != c.want {
			t.Errorf("Shard(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

// TestRangesShardMatchesSortSearch checks the routing loop against the
// sort.Search form it replaced, for keys at, just below and just above
// every bound, over integer bounds with repeats and float bounds with
// infinities, signed zeros and NaN.
func TestRangesShardMatchesSortSearch(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, bounds := range [][]float64{
		nil,
		{0},
		{math.Copysign(0, -1)},
		{-inf, 0, inf},
		{-1.5, -1.5, 0, 2, 2, 2, 1e300},
		{-3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{nan},
		{-1, nan, 1},
		{0, 1, nan, nan, 4, 5, 6},
	} {
		r := NewRanges(bounds)
		probes := []float64{-inf, inf, nan, 0, math.Copysign(0, -1), -1e308, 1e308}
		for _, b := range bounds {
			probes = append(probes, b, math.Nextafter(b, -inf), math.Nextafter(b, inf))
		}
		for _, k := range probes {
			if got, want := r.Shard(k), searchShard(bounds, k); got != want {
				t.Errorf("bounds %v: Shard(%v) = %d, sort.Search = %d", bounds, k, got, want)
			}
		}
	}
	rng := dist.NewRNG(3)
	for n := 1; n <= 17; n++ {
		bounds := make([]int64, n-1)
		for i := range bounds {
			bounds[i] = rng.InRange(-20, 20)
		}
		slices.Sort(bounds)
		r := NewRanges(bounds)
		probes := []int64{math.MinInt64, math.MaxInt64}
		for _, b := range bounds {
			probes = append(probes, b, b-1, b+1)
		}
		for _, k := range probes {
			if got, want := r.Shard(k), searchShard(bounds, k); got != want {
				t.Errorf("bounds %v: Shard(%d) = %d, sort.Search = %d", bounds, k, got, want)
			}
		}
	}
}

// searchShard is the sort.Search form of Ranges.Shard.
func searchShard[K Key](bounds []K, key K) int {
	return sort.Search(len(bounds), func(i int) bool { return key < bounds[i] })
}

func TestRangesOrderRefinement(t *testing.T) {
	// Random boundaries, random keys: shard index must be monotone in
	// the key, the property concatenation-cheap ordered reads rely on.
	rng := dist.NewRNG(42)
	keys := dist.UniformSet(rng, 5000, -1_000_000, 1_000_000)
	for _, n := range []int{1, 2, 3, 8, 17} {
		p := NewRangeQuantiles(n, keys)
		last := 0
		for _, k := range keys { // keys are sorted
			s := p.Shard(k)
			if s < last {
				t.Fatalf("n=%d: shard went backwards at key %d: %d after %d", n, k, s, last)
			}
			if s < 0 || s >= n {
				t.Fatalf("n=%d: Shard(%d) = %d out of range", n, k, s)
			}
			last = s
		}
	}
}

func TestRangeQuantilesBalance(t *testing.T) {
	rng := dist.NewRNG(7)
	// Zipf-skewed keys: uniform splitting would starve most shards,
	// quantile boundaries must keep every shard within 2x of fair.
	keys := dist.ZipfSet(rng, 40_000, 0.8, 0, 1<<30)
	const n = 8
	p := NewRangeQuantiles(n, keys)
	counts := make([]int, n)
	for _, k := range keys {
		counts[p.Shard(k)]++
	}
	fair := len(keys) / n
	for s, c := range counts {
		if c > 2*fair {
			t.Errorf("shard %d holds %d keys, fair share %d", s, c, fair)
		}
	}
}

func TestNewRangeUniform(t *testing.T) {
	p := NewRangeUniform(4, int64(0), int64(100))
	// The bounds are 25, 50 and 75: each opens the next shard.
	for i, b := range []int64{25, 50, 75} {
		if p.Shard(b-1) != i || p.Shard(b) != i+1 {
			t.Fatalf("bound %d: Shard(%d) = %d, Shard(%d) = %d, want %d and %d",
				b, b-1, p.Shard(b-1), b, p.Shard(b), i, i+1)
		}
	}
	if p.N() != 4 || p.Shard(int64(-99)) != 0 || p.Shard(int64(99)) != 3 {
		t.Fatal("uniform bounds misroute")
	}
	// n=1 degenerates to a single shard taking everything.
	one := NewRangeUniform(1, int64(-10), int64(10))
	if one.N() != 1 || one.Shard(int64(-99)) != 0 || one.Shard(int64(99)) != 0 {
		t.Fatal("single-shard uniform partitioner misroutes")
	}
}

// TestSplitKeepsOwnerAndOrder checks the scatter directly: every key
// lands on its owning shard, each sub-batch keeps input order, and the
// sub-batches together hold exactly the input multiset.
func TestSplitKeepsOwnerAndOrder(t *testing.T) {
	rng := dist.NewRNG(11)
	for _, p := range []*Ranges[int64]{
		NewRangeUniform(5, int64(0), int64(1000)),
		NewRanges([]int64{500, 500, 990}), // an empty shard between equal bounds
	} {
		// Unsorted, duplicated input.
		keys := make([]int64, 777)
		for i := range keys {
			keys[i] = rng.Int63n(1000)
		}
		parts := Split(p, keys)
		if len(parts) != p.N() {
			t.Fatalf("Split returned %d parts, want %d", len(parts), p.N())
		}
		var all []int64
		for s := range parts {
			for _, k := range parts[s] {
				if p.Shard(k) != s {
					t.Fatalf("key %d scattered to shard %d, owner %d", k, s, p.Shard(k))
				}
			}
			// The owned keys, filtered from the input in input order.
			var want []int64
			for _, k := range keys {
				if p.Shard(k) == s {
					want = append(want, k)
				}
			}
			if !slices.Equal(parts[s], want) {
				t.Fatalf("shard %d: sub-batch %v is not its keys in input order %v", s, parts[s], want)
			}
			all = append(all, parts[s]...)
		}
		slices.Sort(all)
		sorted := slices.Sorted(slices.Values(keys))
		if !slices.Equal(all, sorted) {
			t.Fatalf("sub-batches hold %d keys, not the input multiset of %d", len(all), len(keys))
		}
	}
}

func TestSplitPairsAlignment(t *testing.T) {
	p := NewRanges([]int64{3, 6})
	keys := []int64{5, 1, 5, 9, 2, 2, 7}
	vals := []uint64{50, 10, 51, 90, 20, 21, 70}
	parts, vparts := SplitPairs(p, keys, vals)
	for s := range parts {
		if len(vparts[s]) != len(parts[s]) {
			t.Fatalf("shard %d: %d keys but %d values", s, len(parts[s]), len(vparts[s]))
		}
		// Pairs stay together and in input order, duplicates included.
		var wantK []int64
		var wantV []uint64
		for i, k := range keys {
			if p.Shard(k) == s {
				wantK, wantV = append(wantK, k), append(wantV, vals[i])
			}
		}
		if !slices.Equal(parts[s], wantK) || !slices.Equal(vparts[s], wantV) {
			t.Fatalf("shard %d: pairs %v/%v, want %v/%v", s, parts[s], vparts[s], wantK, wantV)
		}
	}
}

// TestRangesSignedZero checks that the two float zeros, which every
// tree compares equal, land in one shard: neither sorts below a bound
// at 0, whichever zero the bound is, so both open the shard above it.
func TestRangesSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, bound := range []float64{0, negZero} {
		p := NewRanges([]float64{bound, 1})
		if a, b := p.Shard(0.0), p.Shard(negZero); a != 1 || b != 1 {
			t.Fatalf("bound %v: 0 in shard %d, -0 in shard %d, want 1 and 1", bound, a, b)
		}
	}
}

// TestCutMatchesSplitPairs checks the bulk split against the scatter:
// on sorted duplicate-free input, the parts Cut marks are the parts
// SplitPairs routes key by key. The inputs are int64 keys, uint64 keys
// above 2^63 and float64 keys with infinities and a signed zero, cut
// by explicit bounds (with equal neighbours, so empty shards), uniform
// bounds and quantile bounds, at n = 0, n below the shard count and
// larger n.
func TestCutMatchesSplitPairs(t *testing.T) {
	rng := dist.NewRNG(29)
	for _, n := range []int{0, 1, 3, 7, 100, 2000} {
		ints := sortedUnique(n, func() int64 { return rng.InRange(-5000, 5000) })
		for _, p := range []*Ranges[int64]{
			NewRanges[int64](nil),
			NewRanges([]int64{-100, -100, 0, 0, 0, 2500}),
			NewRanges([]int64{math.MinInt64, math.MaxInt64}),
			NewRangeUniform(8, int64(-5000), int64(5000)),
			NewRangeQuantiles(8, ints),
			NewRangeQuantiles(5, ints[:len(ints)/2]),
		} {
			checkCut(t, p, ints)
		}

		const top = uint64(1) << 63
		uints := sortedUnique(n, func() uint64 { return top + rng.Uint64n(1<<40) })
		for _, p := range []*Ranges[uint64]{
			NewRanges([]uint64{top, top + 1<<39, top + 1<<39, math.MaxUint64}),
			NewRangeUniform(6, top, top+1<<40),
			NewRangeQuantiles(8, uints),
		} {
			checkCut(t, p, uints)
		}

		inf := math.Inf(1)
		specials := []float64{-inf, inf, math.Copysign(0, -1), 0, -1e300, 1e300}
		floats := sortedUnique(n, func() float64 {
			if rng.Int63n(8) == 0 {
				return specials[rng.Int63n(int64(len(specials)))]
			}
			return rng.Float64()*2000 - 1000
		})
		for _, p := range []*Ranges[float64]{
			NewRanges([]float64{-inf, math.Copysign(0, -1), 0, 0, inf}),
			NewRanges([]float64{0, math.Copysign(0, -1), 1e300}),
			NewRanges([]float64{-inf, -inf, inf, inf}),
			NewRangeUniform(7, -1000.0, 1000.0),
			NewRangeQuantiles(8, floats),
		} {
			checkCut(t, p, floats)
		}
	}
}

// checkCut compares p.Cut(sorted) with SplitPairs(p, sorted, ·).
func checkCut[K Key](t *testing.T, p *Ranges[K], sorted []K) {
	t.Helper()
	off := p.Cut(sorted)
	if len(off) != p.N()+1 || off[0] != 0 || off[p.N()] != len(sorted) {
		t.Fatalf("Cut over %d keys, %d shards: offsets %v", len(sorted), p.N(), off)
	}
	idx := make([]int, len(sorted))
	for i := range idx {
		idx[i] = i
	}
	parts, vparts := SplitPairs(p, sorted, idx)
	for s := range parts {
		if !slices.Equal(sorted[off[s]:off[s+1]], parts[s]) {
			t.Fatalf("bounds %v, shard %d: Cut gives %v, SplitPairs %v", p.bounds, s, sorted[off[s]:off[s+1]], parts[s])
		}
		for j, i := range vparts[s] {
			if i != off[s]+j {
				t.Fatalf("bounds %v, shard %d: value %d of the part came from input position %d", p.bounds, s, j, i)
			}
		}
	}
}

// sortedUnique draws n keys from gen and returns them sorted, with
// keys equal under == (the two float zeros too) dropped.
func sortedUnique[K Key](n int, gen func() K) []K {
	keys := make([]K, n)
	for i := range keys {
		keys[i] = gen()
	}
	slices.Sort(keys)
	return slices.CompactFunc(keys, func(a, b K) bool { return a == b })
}
