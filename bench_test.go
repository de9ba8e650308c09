// Package repro's root benchmark file regenerates every figure and
// table of the paper's evaluation (§9) as testing.B benchmarks — one
// benchmark family per experiment row of DESIGN.md §3:
//
//	E1–E3  BenchmarkFig17{Contains,Insert,Remove}   (Fig. 17 a–c)
//	E4     BenchmarkSeqCompare*                     (§9 in-text table)
//	A1/A3  BenchmarkAblationTraverse*               (§4.1 vs §4.2, smooth vs not)
//	A2     BenchmarkAblationRebuildC*               (§7.1 rebuild constant)
//	A4     BenchmarkBaselineTreap*                  (batched treap baseline)
//
// Benchmarks run at container-friendly sizes (n ≈ 10⁶, m = 2·10⁵);
// cmd/pbench runs the same experiments at configurable scale and
// prints the paper-style tables. Shapes — who wins, scaling slope —
// are what transfer; see EXPERIMENTS.md.
package repro

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/iseq"
	"repro/internal/parallel"
	"repro/internal/rbtree"
	"repro/internal/skiplist"
	"repro/internal/treap"
	"repro/pbist"
)

// benchWorkload is the shared workload of all root benchmarks: tree of
// ≈10⁶ keys (every integer of [−10⁶, 10⁶] with probability ½), batches
// of 2·10⁵ uniform keys — the paper's §9 setup at 1/100 scale.
var benchWorkload = bench.Workload{N: 1_000_000, M: 200_000, Seed: 0x5eed}

var (
	fixtureOnce sync.Once
	baseKeys    []int64
	batches     [][]int64
)

func fixtures() ([]int64, [][]int64) {
	fixtureOnce.Do(func() {
		w := benchWorkload.WithDefaults()
		baseKeys = w.BaseKeys()
		batches = make([][]int64, 16)
		for i := range batches {
			batches[i] = w.Batch(i)
		}
	})
	return baseKeys, batches
}

var fig17Workers = []int{1, 2, 4, 8, 16}

// E1 / Fig. 17a: ContainsBatched time versus worker count.
func BenchmarkFig17Contains(b *testing.B) {
	base, bat := fixtures()
	for _, w := range fig17Workers {
		b.Run(workersName(w), func(b *testing.B) {
			tree := core.NewFromSorted(core.Config{}, parallel.NewPool(w), base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.ContainsBatched(bat[i%len(bat)])
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

// E2 / Fig. 17b: InsertBatched time versus worker count. Every
// iteration starts from a freshly built tree (excluded from timing).
func BenchmarkFig17Insert(b *testing.B) {
	base, bat := fixtures()
	for _, w := range fig17Workers {
		b.Run(workersName(w), func(b *testing.B) {
			pool := parallel.NewPool(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tree := core.NewFromSorted(core.Config{}, pool, base)
				b.StartTimer()
				tree.InsertBatched(bat[i%len(bat)])
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

// E3 / Fig. 17c: RemoveBatched time versus worker count.
func BenchmarkFig17Remove(b *testing.B) {
	base, bat := fixtures()
	for _, w := range fig17Workers {
		b.Run(workersName(w), func(b *testing.B) {
			pool := parallel.NewPool(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tree := core.NewFromSorted(core.Config{}, pool, base)
				b.StartTimer()
				tree.RemoveBatched(bat[i%len(bat)])
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

// E4: the §9 sequential comparison — one-worker batched IST versus the
// scalar O(log n) structures on the same M membership queries.
func BenchmarkSeqCompareISTBatched(b *testing.B) {
	base, bat := fixtures()
	tree := core.NewFromSorted(core.Config{}, nil, base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ContainsBatched(bat[i%len(bat)])
	}
	reportKeysPerSec(b, benchWorkload.M)
}

func BenchmarkSeqCompareISTScalar(b *testing.B) {
	base, bat := fixtures()
	// The batched benchmark's H, not iseq's own default.
	tree := iseq.NewFromSorted(iseq.Config{LeafCap: core.DefaultLeafCap}, base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range bat[i%len(bat)] {
			tree.Contains(k)
		}
	}
	reportKeysPerSec(b, benchWorkload.M)
}

func BenchmarkSeqCompareRBTree(b *testing.B) {
	base, bat := fixtures()
	tree := rbtree.New[int64]()
	for _, k := range base {
		tree.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range bat[i%len(bat)] {
			tree.Contains(k)
		}
	}
	reportKeysPerSec(b, benchWorkload.M)
}

func BenchmarkSeqCompareSkipList(b *testing.B) {
	base, bat := fixtures()
	l := skiplist.New[int64](1)
	for _, k := range base {
		l.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range bat[i%len(bat)] {
			l.Contains(k)
		}
	}
	reportKeysPerSec(b, benchWorkload.M)
}

// A1 + A3: traversal mode (interpolation vs Rank) crossed with input
// smoothness (uniform vs clustered).
func BenchmarkAblationTraverse(b *testing.B) {
	base, _ := fixtures()
	pool := parallel.NewPool(8)
	for _, mode := range []struct {
		name string
		tm   core.TraverseMode
	}{{"interpolation", core.TraverseInterpolation}, {"rank", core.TraverseRank}} {
		for _, d := range []struct {
			name     string
			clusters int
		}{{"uniform", 0}, {"clustered", 64}} {
			b.Run(mode.name+"/"+d.name, func(b *testing.B) {
				w := benchWorkload
				w.Clusters = d.clusters
				w = w.WithDefaults()
				probe := make([][]int64, 4)
				for i := range probe {
					probe[i] = w.Batch(100 + i)
				}
				tree := core.NewFromSorted(core.Config{Traverse: mode.tm}, pool, base)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tree.ContainsBatched(probe[i%len(probe)])
				}
				reportKeysPerSec(b, benchWorkload.M)
			})
		}
	}
}

// A2: the rebuild constant C — churn cost versus balance quality.
func BenchmarkAblationRebuildC(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	for _, c := range []int{1, 2, 4, 8} {
		b.Run("C"+itoa(c), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tree := core.NewFromSorted(core.Config{RebuildFactor: c}, pool, base)
				b.StartTimer()
				tree.InsertBatched(bat[i%8])
				tree.RemoveBatched(bat[(i+8)%16])
			}
		})
	}
}

// A4: PB-IST versus the join-based batched treap on the three batched
// set operations.
func BenchmarkBaselineTreapUnion(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		set := treap.NewFromSorted(pool, base)
		b.StartTimer()
		set.UnionWith(bat[i%len(bat)])
	}
	reportKeysPerSec(b, benchWorkload.M)
}

func BenchmarkBaselineTreapDifference(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		set := treap.NewFromSorted(pool, base)
		b.StartTimer()
		set.DifferenceWith(bat[i%len(bat)])
	}
	reportKeysPerSec(b, benchWorkload.M)
}

func BenchmarkBaselineTreapContains(b *testing.B) {
	base, bat := fixtures()
	set := treap.NewFromSorted(parallel.NewPool(8), base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.ContainsBatched(bat[i%len(bat)])
	}
	reportKeysPerSec(b, benchWorkload.M)
}

// Whole-tree set algebra: tree-to-tree union and symmetric difference
// of the ≈10⁶-key base tree with a batch-sized tree. Non-mutating, so
// the operands build once and every iteration times flatten + combine
// + ideal rebuild.
func BenchmarkSetAlgebraUnion(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	ta := core.NewFromSorted(core.Config{}, pool, base)
	tb := core.NewFromSorted(core.Config{}, pool, bat[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta.Union(tb, true)
	}
	reportKeysPerSec(b, len(base)+benchWorkload.M)
}

func BenchmarkSetAlgebraSymDiff(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	ta := core.NewFromSorted(core.Config{}, pool, base)
	tb := core.NewFromSorted(core.Config{}, pool, bat[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta.SymmetricDifference(tb)
	}
	reportKeysPerSec(b, len(base)+benchWorkload.M)
}

// A5: leaf capacity H (§3.4) — search cost versus leaf size.
func BenchmarkSweepLeafCap(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	for _, h := range []int{8, 16, 64} {
		b.Run("H"+itoa(h), func(b *testing.B) {
			tree := core.NewFromSorted(core.Config{LeafCap: h}, pool, base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.ContainsBatched(bat[i%len(bat)])
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

// A6: interpolation-index size factor ε (§3.2) — search cost versus
// index memory.
func BenchmarkSweepIndexFactor(b *testing.B) {
	base, bat := fixtures()
	pool := parallel.NewPool(8)
	for _, name := range []struct {
		label  string
		factor float64
	}{{"quarter", 0.25}, {"one", 1}, {"four", 4}} {
		b.Run(name.label, func(b *testing.B) {
			tree := core.NewFromSorted(core.Config{IndexSizeFactor: name.factor}, pool, base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.ContainsBatched(bat[i%len(bat)])
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

// A7: batch size m — per-key amortization of the shared traversal.
func BenchmarkSweepBatchSize(b *testing.B) {
	base, _ := fixtures()
	pool := parallel.NewPool(8)
	tree := core.NewFromSorted(core.Config{}, pool, base)
	for _, m := range []int{1000, 10000, 100000} {
		b.Run("m"+itoa(m), func(b *testing.B) {
			w := benchWorkload.WithDefaults()
			w.M = m
			probe := make([][]int64, 4)
			for i := range probe {
				probe[i] = w.Batch(300 + i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.ContainsBatched(probe[i%len(probe)])
			}
			reportKeysPerSec(b, m)
		})
	}
}

// Map workload: the value-carrying batched operations through the
// public Map view with 8-byte payloads. PutBatch mixes fresh inserts
// with value overwrites (batches share the base key range), so both
// the updateRec and insertRec paths execute; GetBatch exercises the
// value-fetching traversal. AssumeSorted skips facade normalization:
// the workload generator emits sorted duplicate-free batches, so the
// timings measure the batched core, not the sort.
func BenchmarkMapPutBatch(b *testing.B) {
	base, bat := fixtures()
	baseVals := bench.MapPayloads(base)
	for _, w := range []int{1, 8} {
		b.Run(workersName(w), func(b *testing.B) {
			opts := pbist.Options{Workers: w, AssumeSorted: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := pbist.NewMapFromItems(opts, base, baseVals)
				batch := bat[i%len(bat)]
				vals := bench.MapPayloads(batch)
				b.StartTimer()
				m.PutBatch(batch, vals)
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

func BenchmarkMapGetBatch(b *testing.B) {
	base, bat := fixtures()
	baseVals := bench.MapPayloads(base)
	for _, w := range []int{1, 8} {
		b.Run(workersName(w), func(b *testing.B) {
			m := pbist.NewMapFromItems(pbist.Options{Workers: w, AssumeSorted: true}, base, baseVals)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.GetBatch(bat[i%len(bat)])
			}
			reportKeysPerSec(b, benchWorkload.M)
		})
	}
}

// Concurrent combining frontend: point-op throughput when many
// client goroutines share one engine through pbist.Concurrent. Each
// b.N iteration is one Get per client, all clients in flight at once,
// so the combiner coalesces ≈clients ops per epoch.
func BenchmarkConcurrentGet(b *testing.B) {
	base, _ := fixtures()
	baseVals := bench.MapPayloads(base)
	for _, clients := range []int{1, 8, 64} {
		b.Run("clients_"+itoa(clients), func(b *testing.B) {
			c := pbist.NewConcurrentFromItems(
				pbist.ConcurrentOptions{Options: pbist.Options{AssumeSorted: true}},
				base, baseVals)
			defer c.Close()
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						c.Get(base[(g*1_000_003+i)%len(base)])
					}
				}(g)
			}
			wg.Wait()
			reportKeysPerSec(b, clients)
		})
	}
}

// Sharded batched reads: one GetBatch of unsorted keys against an
// 8-shard frontend holding the ≈10⁶-key fixture tree. Each iteration
// reads the next window of two shuffled fixture batches, so the small
// batches do not hit the same cache lines every time. Every size is
// walked in groups of core.GroupSize keys: 8 keys is one group and 64
// keys eight, both inline; the larger sizes run on the pool in tasks
// of 256 keys.
func BenchmarkShardedGetBatch(b *testing.B) {
	base, bat := fixtures()
	s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 8}, base, bench.MapPayloads(base))
	defer s.Close()
	keys := slices.Concat(bat[0], bat[1])
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, m := range []int{8, 64, 16384, 100_000, 262_144, 400_000} {
		b.Run("keys_"+itoa(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				off := i * m % (len(keys) - m + 1)
				s.GetBatch(keys[off : off+m])
			}
			reportKeysPerSec(b, m)
		})
	}
}

// Sharded point misses: parallel Get against an 8-shard frontend of
// 2^20 even keys, with and without the per-shard Bloom filter
// (ShardedOptions.PointFilter), at 100% and 25% misses. A miss probes
// an odd key inside the loaded span, so without the filter it pays a
// full version walk; with it, most misses end at the filter.
func BenchmarkShardedGetMiss(b *testing.B) {
	const n = 1 << 20
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 2 * int64(i)
		vals[i] = uint64(i)
	}
	for _, filter := range []bool{false, true} {
		name := "filter_off"
		if filter {
			name = "filter_on"
		}
		b.Run(name, func(b *testing.B) {
			s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 8, PointFilter: filter}, keys, vals)
			defer s.Close()
			for _, missPct := range []int{100, 25} {
				r := rand.New(rand.NewPCG(uint64(missPct), 3))
				probes := make([]int64, 1<<16)
				for i := range probes {
					probes[i] = 2 * r.Int64N(n)
					if r.IntN(100) < missPct {
						probes[i]++
					}
				}
				b.Run("miss_"+itoa(missPct), func(b *testing.B) {
					var next atomic.Int64
					b.RunParallel(func(pb *testing.PB) {
						i := int(next.Add(1)) * 7919
						for pb.Next() {
							s.Get(probes[i%len(probes)])
							i++
						}
					})
				})
			}
		})
	}
}

// Sharded point writes: parallel single-key Put against an 8-shard
// frontend of 2^20 even keys. Every Put overwrites a loaded key, so the
// shape holds still across b.N, and every one rides a combiner epoch
// that path-copies its key's root-to-leaf path and publishes. Run with
// -benchmem: B/op and allocs/op are the serving write path's cost.
func BenchmarkShardedPut(b *testing.B) {
	const n = 1 << 20
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 2 * int64(i)
		vals[i] = uint64(i)
	}
	s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 8}, keys, vals)
	defer s.Close()
	r := rand.New(rand.NewPCG(5, 7))
	probes := make([]int64, 1<<16)
	for i := range probes {
		probes[i] = 2 * r.Int64N(n)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7919
		for pb.Next() {
			s.Put(probes[i%len(probes)], uint64(i))
			i++
		}
	})
}

// Paper-sized sharded batches: one PutBatch of M = N/10 fresh keys,
// sorted, into a frontend of N = 2^20 even keys, on 1 and 8 shards.
// Each shard's part is one large combining epoch, the batch size the
// paper evaluates (M = N/10). The DeleteBatch that restores the base
// runs untimed. Run with -benchmem or read the reported allocs/op.
func BenchmarkShardedPutBatch(b *testing.B) {
	const n = 1 << 20
	const m = n / 10
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 2 * int64(i)
		vals[i] = uint64(i)
	}
	batch := make([]int64, m) // odd, so absent from the base
	for i, x := range rand.New(rand.NewPCG(11, 13)).Perm(n)[:m] {
		batch[i] = 2*int64(x) + 1
	}
	slices.Sort(batch)
	bvals := make([]uint64, m)
	for _, shards := range []int{1, 8} {
		b.Run("shards_"+itoa(shards), func(b *testing.B) {
			s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: shards}, keys, vals)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.PutBatch(batch, bvals)
				b.StopTimer()
				s.DeleteBatch(batch)
				b.StartTimer()
			}
			reportKeysPerSec(b, m)
		})
	}
}

// Steady-state write-path allocation benchmarks: a 1M-key tree churned
// with 10k-key batches. Run with -benchmem: allocs/op and B/op here are
// the committed regression surface for the arena-backed rebuild engine
// (CI checks BenchmarkPutBatched against a ceiling). Each iteration
// times one batched write; the inverse operation runs untimed so the
// tree stays at its steady-state size and the same batches cycle
// through insert, revive, logical-delete, and rebuild paths forever.
const (
	allocBenchN = 1_000_000
	allocBenchM = 10_000
)

func allocBenchFixtures() (*core.Tree[int64, struct{}], [][]int64) {
	w := bench.Workload{N: allocBenchN, M: allocBenchM, Seed: 0x5eed}.WithDefaults()
	tree := core.NewFromSorted(core.Config{}, parallel.NewPool(8), w.BaseKeys())
	batches := make([][]int64, 16)
	for i := range batches {
		batches[i] = w.Batch(i)
	}
	// Warm to steady state: one full churn cycle per batch so later
	// iterations see the stable mix of inserts, revives, and rebuilds.
	for _, bat := range batches {
		tree.InsertBatched(bat)
		tree.RemoveBatched(bat)
	}
	return tree, batches
}

func BenchmarkPutBatched(b *testing.B) {
	tree, batches := allocBenchFixtures()
	zeros := make([]struct{}, allocBenchM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat := batches[i%len(batches)]
		tree.PutBatched(bat, zeros[:len(bat)])
		b.StopTimer()
		tree.RemoveBatched(bat)
		b.StartTimer()
	}
	reportKeysPerSec(b, allocBenchM)
}

func BenchmarkRemoveBatched(b *testing.B) {
	tree, batches := allocBenchFixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat := batches[i%len(batches)]
		b.StopTimer()
		tree.InsertBatched(bat)
		b.StartTimer()
		tree.RemoveBatched(bat)
	}
	reportKeysPerSec(b, allocBenchM)
}

// Bulk-load throughput: the §7.3 parallel ideal build.
func BenchmarkBuildIdeal(b *testing.B) {
	base, _ := fixtures()
	for _, w := range []int{1, 8} {
		b.Run(workersName(w), func(b *testing.B) {
			pool := parallel.NewPool(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewFromSorted(core.Config{}, pool, base)
			}
			reportKeysPerSec(b, len(base))
		})
	}
}

func reportKeysPerSec(b *testing.B, keysPerOp int) {
	b.ReportMetric(float64(keysPerOp)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

func workersName(w int) string { return "workers_" + itoa(w) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
