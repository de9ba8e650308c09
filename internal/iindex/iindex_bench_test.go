package iindex

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// Micro-benchmarks of the search kernels a tree runs, against plain
// binary search: Find over a Build index (inner nodes) and SearchLeaf
// (leaves). On uniform data Find should sit well under the log₂(n)
// probes of binary search.

func benchRep(n int) ([]int64, Index) {
	rep := sortedUniqueInt64(1, n, 1<<40)
	return rep, Build(rep, 0)
}

func probes(n int) []int64 {
	return sortedUniqueInt64(2, n, 1<<40)
}

func BenchmarkFindIndexed(b *testing.B) {
	rep, ix := benchRep(1 << 16)
	ps := probes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(rep, &ix, ps[i%len(ps)])
	}
}

func BenchmarkBinarySearch(b *testing.B) {
	rep, _ := benchRep(1 << 16)
	ps := probes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowerBound(rep, ps[i%len(ps)])
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	rep, _ := benchRep(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(rep, 0)
	}
	b.SetBytes(int64(len(rep) * 8))
}

// leafRep returns a leaf of n keys drawn uniformly or in four dense
// clusters, the parent's separators around it, and hit and miss
// probes inside the separators. Unlike the 2^16-key benchmarks above,
// whose probes almost never hit, half of these cases probe keys the
// leaf holds, the case a tree walk that ends in a leaf mostly serves.
func leafRep(n int, clustered bool) (rep []int64, lo, hi float64, hits, misses []int64) {
	r := rand.New(rand.NewSource(int64(n)))
	set := map[int64]struct{}{}
	for len(set) < n+2 {
		if clustered {
			set[int64(r.Intn(4))<<30+r.Int63n(int64(4*n))] = struct{}{}
		} else {
			set[r.Int63n(1<<30)] = struct{}{}
		}
	}
	all := slices.Sorted(maps.Keys(set))
	rep = all[1 : n+1]
	for len(misses) < 1024 {
		x := all[0] + 1 + r.Int63n(all[n+1]-all[0]-1)
		if _, in := set[x]; !in {
			misses = append(misses, x)
		}
	}
	for range 1024 {
		hits = append(hits, rep[r.Intn(n)])
	}
	return rep, float64(all[0]), float64(all[n+1]), hits, misses
}

func BenchmarkLeafSearch(b *testing.B) {
	for _, shape := range []string{"uniform", "clustered"} {
		for _, n := range []int{17, 64, 256} {
			rep, lo, hi, hits, misses := leafRep(n, shape == "clustered")
			for _, c := range []struct {
				name   string
				probes []int64
			}{{"hit", hits}, {"miss", misses}} {
				prefix := fmt.Sprintf("%s/n_%d/%s/", shape, n, c.name)
				b.Run(prefix+"BinarySearch", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						lowerBound(rep, c.probes[i%len(c.probes)])
					}
				})
				b.Run(prefix+"SearchLeaf", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						SearchLeaf(rep, lo, hi, c.probes[i%len(c.probes)])
					}
				})
			}
		}
	}
}
