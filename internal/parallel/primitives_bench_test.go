package parallel

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the §2.4 primitives: per-primitive scaling is
// what the span bounds of the paper's Theorem 1/2 rest on.

const benchN = 1 << 20

func benchPools() []*Pool {
	return []*Pool{nil, NewPool(4), NewPool(16)}
}

func poolName(p *Pool) string {
	return fmt.Sprintf("workers_%d", p.Workers())
}

func BenchmarkScan(b *testing.B) {
	arr := randInts(1, benchN, 1000)
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			// Every iteration rescans the previous sums; they wrap,
			// which costs the same.
			for i := 0; i < b.N; i++ {
				ScanInPlace(p, arr)
			}
			b.SetBytes(int64(benchN * 8))
		})
	}
}

func BenchmarkFilter(b *testing.B) {
	arr := randInts(2, benchN, 1000)
	pred := func(i int) bool { return arr[i]%2 == 0 }
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FilterIndex(p, arr, pred)
			}
			b.SetBytes(int64(benchN * 8))
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	x := sortedUnique(3, benchN/2, 1<<40)
	y := sortedUnique(4, benchN/2, 1<<40)
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				UnionKVInto(p, x, none(x), y, none(y), nil, nil)
			}
			b.SetBytes(int64(benchN * 8))
		})
	}
}

func BenchmarkDifference(b *testing.B) {
	x := sortedUnique(5, benchN/2, 1<<30)
	y := sortedUnique(6, benchN/2, 1<<30)
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DifferenceKVInto(p, x, none(x), y, none(y), nil, nil)
			}
			b.SetBytes(int64(benchN * 8))
		})
	}
}

func BenchmarkRank(b *testing.B) {
	x := sortedUnique(7, benchN/2, 1<<40)
	y := sortedUnique(8, benchN/2, 1<<40)
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Rank(p, x, y)
			}
			b.SetBytes(int64(benchN * 8))
		})
	}
}

func BenchmarkSort(b *testing.B) {
	src := randInts(9, benchN, 1<<40)
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			buf := make([]int, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, src)
				b.StartTimer()
				SortedDedup(p, buf)
			}
			b.SetBytes(int64(benchN * 8))
		})
	}
}

func BenchmarkForOverhead(b *testing.B) {
	// Cost of the parallel loop scaffolding on a trivial body.
	var sink [256]int64
	for _, p := range benchPools() {
		b.Run(poolName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				For(p, benchN, 0, func(j int) {
					sink[j%256]++
				})
			}
		})
	}
}
