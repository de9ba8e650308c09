package shard

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
)

func TestRangesShardAssignment(t *testing.T) {
	r := NewRanges([]int64{10, 20, 30})
	if r.N() != 4 {
		t.Fatalf("N = %d, want 4", r.N())
	}
	if !r.Ordered() {
		t.Fatal("range partitioner must report Ordered")
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
	want := []int64{25, 50, 75}
	if !slices.Equal(p.Bounds(), want) {
		t.Fatalf("bounds = %v, want %v", p.Bounds(), want)
	}
	if p.Shard(int64(24)) != 0 || p.Shard(int64(25)) != 1 || p.Shard(int64(99)) != 3 {
		t.Fatal("uniform bounds misroute")
	}
	// n=1 degenerates to a single shard taking everything.
	one := NewRangeUniform(1, int64(-10), int64(10))
	if one.N() != 1 || one.Shard(int64(-99)) != 0 || one.Shard(int64(99)) != 0 {
		t.Fatal("single-shard uniform partitioner misroutes")
	}
}

func TestHashedBalanceAndDeterminism(t *testing.T) {
	const n = 8
	p := NewHashed[int64](n)
	if p.Ordered() {
		t.Fatal("hash partitioner must not report Ordered")
	}
	rng := dist.NewRNG(3)
	// Clustered keys — the adversarial case for range partitioning —
	// must still spread evenly under hashing.
	keys := dist.Clustered(rng, 40_000, 4, 0, 1<<30)
	counts := make([]int, n)
	for _, k := range keys {
		s := p.Shard(k)
		if s != p.Shard(k) {
			t.Fatalf("Shard(%d) not deterministic", k)
		}
		counts[s]++
	}
	fair := len(keys) / n
	for s, c := range counts {
		if c < fair/2 || c > 2*fair {
			t.Errorf("shard %d holds %d keys, fair share %d", s, c, fair)
		}
	}
}

// TestSplitKeepsOwnerAndOrder checks the scatter directly: every key
// lands on its owning shard, each sub-batch keeps input order, and the
// sub-batches together hold exactly the input multiset.
func TestSplitKeepsOwnerAndOrder(t *testing.T) {
	rng := dist.NewRNG(11)
	for _, p := range []Partitioner[int64]{
		NewHashed[int64](5),
		NewRangeUniform(5, int64(0), int64(1000)),
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
	p := NewHashed[int64](3)
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

// TestHashKeySignedZero checks that the two float zeros, which every
// tree compares equal, hash alike and so land in one shard.
func TestHashKeySignedZero(t *testing.T) {
	if a, b := HashKey(0.0), HashKey(math.Copysign(0, -1)); a != b {
		t.Fatalf("HashKey(0) = %#x, HashKey(-0) = %#x, want equal", a, b)
	}
	p := NewHashed[float64](8)
	if a, b := p.Shard(0.0), p.Shard(math.Copysign(0, -1)); a != b {
		t.Fatalf("0 in shard %d, -0 in shard %d", a, b)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(8 * 10_000)
	rng := dist.NewRNG(99)
	added := make([]int64, 10_000)
	for i := range added {
		added[i] = rng.Int63n(1 << 40)
		b.Add(HashKey(added[i]))
	}
	for _, k := range added {
		if !b.MayContain(HashKey(k)) {
			t.Fatalf("false negative for added key %d", k)
		}
	}
	// False positives must be rare enough to be a useful router.
	fp := 0
	const probes = 20_000
	for i := 0; i < probes; i++ {
		k := -1 - rng.Int63n(1<<40) // negative: disjoint from added keys
		if b.MayContain(HashKey(k)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.25 {
		t.Fatalf("false-positive rate %.3f too high to be useful", rate)
	}
}
