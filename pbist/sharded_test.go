package pbist_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

// shardedConfigs enumerates the Sharded configurations the
// differential tests sweep: both partition policies, with and without
// the point filter, shard counts around and past GOMAXPROCS.
func shardedConfigs() map[string]pbist.ShardedOptions {
	return map[string]pbist.ShardedOptions{
		"range4":       {Shards: 4, Partition: pbist.PartitionRange},
		"hash4":        {Shards: 4, Partition: pbist.PartitionHash},
		"range3filter": {Shards: 3, Partition: pbist.PartitionRange, PointFilter: true},
		"hash7filter":  {Shards: 7, Partition: pbist.PartitionHash, PointFilter: true},
	}
}

// newShardedForTest builds a Sharded under cfg, bulk-loading seed
// items so range boundaries are fitted rather than degenerate.
func newShardedForTest(cfg pbist.ShardedOptions, keys []int64, vals []uint64) *pbist.Sharded[int64, uint64] {
	return pbist.NewShardedFromItems(cfg, keys, vals)
}

// TestShardedDifferentialStress is the sharded twin of
// TestConcurrentDifferentialStress: many client goroutines, each
// owning a disjoint key stripe checked exactly against a per-client
// map oracle, hammering one Sharded whose stripes deliberately span
// shard boundaries (stripe width and shard width are unrelated). Runs
// under -race in CI. Finally the merged oracles must equal the
// cross-shard snapshot and the answers of batched reads over every key:
// one of a thousand keys and one of 20 to 40 thousand, both walked
// in groups on the pool.
func TestShardedDifferentialStress(t *testing.T) {
	for name, cfg := range shardedConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			clients, steps := stressScale(t)
			clients /= 2 // 4 configs in parallel; keep CI time flat
			const stride = 64
			// Seed with scattered items so quantile boundaries exist and
			// stripes straddle them.
			seedK := make([]int64, 0, clients)
			seedV := make([]uint64, 0, clients)
			for id := 0; id < clients; id += 3 {
				seedK = append(seedK, int64(id)*stride+7)
				seedV = append(seedV, uint64(id))
			}
			s := newShardedForTest(cfg, seedK, seedV)
			defer s.Close()

			oracles := make([]map[int64]uint64, clients)
			var wg sync.WaitGroup
			for id := 0; id < clients; id++ {
				oracles[id] = make(map[int64]uint64)
				if id%3 == 0 {
					// The seed key on this client's stripe: the oracle must
					// start from the loaded state.
					oracles[id][int64(id)*stride+7] = uint64(id)
				}
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					oracle := oracles[id]
					r := dist.NewRNG(0x5aad ^ uint64(id)*0x9e37)
					base := int64(id) * stride
					key := func() int64 { return base + r.Int63n(stride) }
					for step := 0; step < steps; step++ {
						switch r.Uint64n(8) {
						case 0, 1: // Put
							k, v := key(), r.Uint64()
							_, had := oracle[k]
							if ins := s.Put(k, v); ins == had {
								t.Errorf("client %d step %d: Put(%d) inserted=%v, oracle had=%v", id, step, k, ins, had)
								return
							}
							oracle[k] = v
						case 2: // Delete
							k := key()
							_, had := oracle[k]
							if rm := s.Delete(k); rm != had {
								t.Errorf("client %d step %d: Delete(%d)=%v, oracle %v", id, step, k, rm, had)
								return
							}
							delete(oracle, k)
						case 3, 4: // Get (filter short-circuit path included)
							k := key()
							wv, had := oracle[k]
							v, ok := s.Get(k)
							if ok != had || (had && v != wv) {
								t.Errorf("client %d step %d: Get(%d)=%v,%v want %v,%v", id, step, k, v, ok, wv, had)
								return
							}
						case 5: // Contains
							k := key()
							_, had := oracle[k]
							if ok := s.Contains(k); ok != had {
								t.Errorf("client %d step %d: Contains(%d)=%v want %v", id, step, k, ok, had)
								return
							}
						case 6: // PutBatch spanning shards, duplicated key (last wins)
							k1, k2 := key(), key()
							v1, v2, v3 := r.Uint64(), r.Uint64(), r.Uint64()
							s.PutBatch([]int64{k1, k2, k1}, []uint64{v1, v2, v3})
							oracle[k2] = v2 // k2 may equal k1; assign in input order
							oracle[k1] = v3
						case 7: // GetBatch, unsorted possibly-duplicated, cross-shard
							keys := []int64{key(), key(), key()}
							vals, found := s.GetBatch(keys)
							for i, k := range keys {
								wv, had := oracle[k]
								if found[i] != had || (had && vals[i] != wv) {
									t.Errorf("client %d step %d: GetBatch[%d](%d)=%v,%v want %v,%v",
										id, step, i, k, vals[i], found[i], wv, had)
									return
								}
							}
						}
					}
				}(id)
			}
			wg.Wait()

			// The stripes are disjoint and each oracle starts from the
			// seeded state of its own stripe, so the union of the oracles
			// is exactly the expected contents.
			merged := make(map[int64]uint64)
			for _, o := range oracles {
				for k, v := range o {
					merged[k] = v
				}
			}
			ks, vs := s.Items()
			if !slices.IsSorted(ks) {
				t.Fatal("cross-shard snapshot keys not sorted")
			}
			if len(ks) != len(merged) {
				t.Fatalf("snapshot has %d keys, merged oracles %d", len(ks), len(merged))
			}
			for i, k := range ks {
				if wv, ok := merged[k]; !ok || vs[i] != wv {
					t.Fatalf("snapshot[%d] = %d→%d, oracle %d (present=%v)", i, k, vs[i], wv, ok)
				}
			}
			if n := s.Len(); n != len(ks) {
				t.Fatalf("Len = %d, snapshot %d", n, len(ks))
			}
			// One batch over the whole span and past both ends, shuffled,
			// with every key six times: about 80 pool tasks of cutGrain
			// (256) keys even with -short.
			var probe []int64
			for k := int64(-stride); k < int64(clients+1)*stride; k++ {
				probe = append(probe, k, k, k, k, k, k)
			}
			r := dist.NewRNG(0xba7c4)
			for i := len(probe) - 1; i > 0; i-- {
				j := int(r.Uint64n(uint64(i + 1)))
				probe[i], probe[j] = probe[j], probe[i]
			}
			for _, batch := range [][]int64{probe[:1000], probe} {
				gotV, gotF := s.GetBatch(batch)
				gotC := s.ContainsBatch(batch)
				for i, k := range batch {
					wv, had := merged[k]
					if gotF[i] != had || gotC[i] != had || (had && gotV[i] != wv) {
						t.Fatalf("batched read of %d keys: key %d = %d,%v, contains %v; want %d,%v",
							len(batch), k, gotV[i], gotF[i], gotC[i], wv, had)
					}
				}
			}
		})
	}
}

// TestShardedGroupedBatchReads compares GetBatch and ContainsBatch
// with Get key by key on a quiescent frontend, at batch sizes around
// one walk group (8 keys) and around the inline limit (256 keys),
// with the point filter on and off and on one shard. Batches mix live
// keys, deleted keys and keys never inserted (filter misses), with
// repeats.
func TestShardedGroupedBatchReads(t *testing.T) {
	cfgs := shardedConfigs()
	cfgs["single"] = pbist.ShardedOptions{Shards: 1}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			r := dist.NewRNG(0x9b)
			const span = 1 << 14
			keys := dist.UniformSet(r, 4000, 0, span)
			vals := make([]uint64, len(keys))
			for i := range vals {
				vals[i] = r.Uint64()
			}
			s := newShardedForTest(cfg, keys, vals)
			defer s.Close()
			s.DeleteBatch(keys[:len(keys)/3])
			for _, m := range []int{1, 7, 8, 9, 255, 256, 257, 1000} {
				batch := make([]int64, m)
				for i := range batch {
					switch r.Uint64n(3) {
					case 0:
						batch[i] = keys[r.Uint64n(uint64(len(keys)))]
					case 1:
						batch[i] = r.InRange(-span, 2*span)
					default:
						batch[i] = batch[r.Uint64n(uint64(i+1))]
					}
				}
				gotV, gotF := s.GetBatch(batch)
				gotC := s.ContainsBatch(batch)
				for i, k := range batch {
					wv, want := s.Get(k)
					if gotF[i] != want || gotC[i] != want || gotV[i] != wv {
						t.Fatalf("%d keys: key %d = %d,%v, contains %v; Get says %d,%v",
							m, k, gotV[i], gotF[i], gotC[i], wv, want)
					}
				}
			}
		})
	}
}

// TestShardedRangeOrdering checks the cross-shard ordered reads —
// Range, Ascend, Keys, Items — against a Map oracle, under both the
// concatenating (range) and merging (hash) policies, with query
// windows chosen to straddle shard boundaries.
func TestShardedRangeOrdering(t *testing.T) {
	r := dist.NewRNG(0xbeef)
	const n = 20_000
	keys := dist.UniformSet(r, n, -1_000_000, 1_000_000)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	oracle := pbist.NewMapFromItems(pbist.Options{}, keys, vals)

	for name, cfg := range shardedConfigs() {
		t.Run(name, func(t *testing.T) {
			s := pbist.NewShardedFromItems(cfg, keys, vals)
			defer s.Close()

			if got := s.Keys(); !slices.Equal(got, keys) {
				t.Fatalf("Keys: %d keys, want %d (or misordered)", len(got), len(keys))
			}
			ik, iv := s.Items()
			ok, ov := oracle.Items()
			if !slices.Equal(ik, ok) || !slices.Equal(iv, ov) {
				t.Fatal("Items disagrees with Map oracle")
			}

			// Windows: full span, straddle, empty, inverted, single key.
			windows := [][2]int64{
				{-2_000_000, 2_000_000},
				{keys[n/4], keys[3*n/4]},
				{keys[n/2] + 1, keys[n/2] + 1},
				{100, -100},
				{keys[7], keys[7]},
			}
			for _, w := range windows {
				gk, gv := s.Range(w[0], w[1])
				wk, wv := oracle.Range(w[0], w[1])
				if !slices.Equal(gk, wk) || !slices.Equal(gv, wv) {
					t.Fatalf("Range(%d,%d): got %d keys, want %d (or misordered)", w[0], w[1], len(gk), len(wk))
				}
				if !slices.IsSorted(gk) {
					t.Fatalf("Range(%d,%d) keys not sorted", w[0], w[1])
				}
				// Ascend must iterate the same pairs in the same order.
				i := 0
				for k, v := range s.Ascend(w[0], w[1]) {
					if k != wk[i] || v != wv[i] {
						t.Fatalf("Ascend(%d,%d)[%d] = %d→%d, want %d→%d", w[0], w[1], i, k, v, wk[i], wv[i])
					}
					i++
					if i == 3 { // early break must be honored
						break
					}
				}
			}
		})
	}
}

// TestShardedRetentionBounded is the private-arena retention test:
// every shard tree and combiner owns its scratch arena, and the idle
// inventory they retain after heavy batched churn, summed over the
// core.arena.* and combine.scratch.* gauges, must not grow with the
// shard count. The bound is on retained elements, not buffers: each
// arena keeps its own free lists, so the buffer count does grow with
// the number of arenas, but a shard's batches shrink as shards are
// added, so the capacity those buffers pin stays about level. A
// 16-shard group may retain at most twice the elements of a 4-shard
// group.
func TestShardedRetentionBounded(t *testing.T) {
	churn := func(shards int) (buffers, elems int64) {
		r := dist.NewRNG(uint64(shards))
		reg := pbist.NewMetrics()
		s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{
			ConcurrentOptions: pbist.ConcurrentOptions{Options: pbist.Options{Metrics: reg}},
			Shards:            shards,
		})
		defer s.Close()
		const batch = 4096
		keys := make([]int64, batch)
		vals := make([]uint64, batch)
		for round := 0; round < 8; round++ {
			for i := range keys {
				keys[i] = r.Int63n(1 << 20)
				vals[i] = r.Uint64()
			}
			s.PutBatch(keys, vals)
			s.GetBatch(keys)
			s.DeleteBatch(keys[:batch/2])
		}
		s.Flush()
		g := reg.Snapshot().Gauges
		buffers = g["core.arena.retained_buffers"] + g["combine.scratch.retained_buffers"]
		elems = g["core.arena.retained_elems"] + g["combine.scratch.retained_elems"]
		return buffers, elems
	}

	b4, e4 := churn(4)
	b16, e16 := churn(16)
	t.Logf("retained: 4 shards %d buffers / %d elems; 16 shards %d buffers / %d elems", b4, e4, b16, e16)
	if e4 == 0 || e16 == 0 {
		t.Fatal("expected nonzero retained scratch after churn (reuse disabled?)")
	}
	if e16 > 2*e4 {
		t.Fatalf("retained elems grew with shard count: %d at 16 shards vs %d at 4", e16, e4)
	}
}

// TestShardedBatchSoak soaks the batch paths of a multi-shard group,
// where recycled scratch handed to the wrong shard would show as lost
// or foreign values: on an 8-shard group over 2^18 keys, 4 goroutines
// loop PutBatch, GetBatch, DeleteBatch and ContainsBatch of 4096
// fresh keys for about two seconds. Each goroutine draws its keys
// from its own residue class, so its oracle is exact for every answer
// and return count; the final Items must match the union of the
// oracles and the base keys. Skipped under -short.
func TestShardedBatchSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped under -short")
	}
	const (
		baseN   = 1 << 18
		workers = 4
		batch   = 4096
		stride  = workers + 1 // base keys ≡ 0, worker g's keys ≡ g+1 (mod stride)
		span    = 1 << 22     // slots per residue class; base keys spread over all of them
		soak    = 2 * time.Second
	)
	want := make(map[int64]uint64, baseN)
	base := make([]int64, baseN)
	bvals := make([]uint64, baseN)
	for i := range base {
		base[i] = int64(i) * (span / baseN) * stride
		bvals[i] = uint64(i)
		want[base[i]] = bvals[i]
	}
	s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 8}, base, bvals)
	defer s.Close()

	live := make([]map[int64]uint64, workers) // worker g's keys now present
	deadline := time.Now().Add(soak)
	var wg sync.WaitGroup
	for g := range workers {
		live[g] = make(map[int64]uint64)
		wg.Add(1)
		go func(g int, live map[int64]uint64) {
			defer wg.Done()
			r := dist.NewRNG(uint64(g) + 1)
			keys := make([]int64, batch)
			vals := make([]uint64, batch)
			for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
				fresh := make(map[int64]bool, batch)
				for i := range keys {
					k := r.Int63n(span)*stride + int64(g) + 1
					for _, present := live[k]; present || fresh[k]; _, present = live[k] {
						k = r.Int63n(span)*stride + int64(g) + 1
					}
					fresh[k] = true
					keys[i], vals[i] = k, r.Uint64()
				}
				if n := s.PutBatch(keys, vals); n != batch {
					t.Errorf("worker %d cycle %d: PutBatch inserted %d fresh keys, want %d", g, cycle, n, batch)
					return
				}
				got, found := s.GetBatch(keys)
				for i, k := range keys {
					if !found[i] || got[i] != vals[i] {
						t.Errorf("worker %d cycle %d: GetBatch[%d] key %d = (%d, %v), want (%d, true)", g, cycle, i, k, got[i], found[i], vals[i])
						return
					}
				}
				if n := s.DeleteBatch(keys[:batch/2]); n != batch/2 {
					t.Errorf("worker %d cycle %d: DeleteBatch removed %d, want %d", g, cycle, n, batch/2)
					return
				}
				for i, in := range s.ContainsBatch(keys) {
					if in != (i >= batch/2) {
						t.Errorf("worker %d cycle %d: ContainsBatch[%d] key %d = %v after deleting the first half", g, cycle, i, keys[i], in)
						return
					}
				}
				for i := batch / 2; i < batch; i++ {
					live[keys[i]] = vals[i]
				}
			}
		}(g, live[g])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, m := range live {
		for k, v := range m {
			want[k] = v
		}
	}
	ks, vs := s.Items()
	if len(ks) != len(want) {
		t.Fatalf("Items: %d keys, want %d", len(ks), len(want))
	}
	for i, k := range ks {
		if i > 0 && ks[i-1] >= k {
			t.Fatalf("Items not strictly ascending at %d: %d then %d", i, ks[i-1], k)
		}
		if v, ok := want[k]; !ok || v != vs[i] {
			t.Fatalf("Items[%d] = %d→%d, want present=%v value %d", i, k, vs[i], ok, v)
		}
	}
	t.Logf("%d keys after soak (%d base)", len(ks), baseN)
}

// TestShardedPointFilter checks the Bloom router: misses short-circuit
// (counted in Stats), hits are always forwarded, and a Put immediately
// followed by a Get on the same goroutine is never short-circuited —
// the linearizability property Add-before-acknowledge provides.
func TestShardedPointFilter(t *testing.T) {
	s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{Shards: 4, PointFilter: true})
	defer s.Close()
	for i := int64(0); i < 1000; i++ {
		s.Put(i, uint64(i))
		if v, ok := s.Get(i); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) after Put = %d,%v", i, v, ok)
		}
	}
	// Far-away keys: mostly filter misses.
	for i := int64(0); i < 1000; i++ {
		if s.Contains(1_000_000_000 + i*7919) {
			t.Fatalf("Contains(%d) true for never-inserted key", 1_000_000_000+i*7919)
		}
	}
	st := s.Stats()
	if st.FilterShortCircuits == 0 {
		t.Fatal("expected some filter short-circuits for distant misses")
	}
	// Deleted keys read as stale positives: must still answer correctly.
	s.Delete(5)
	if s.Contains(5) {
		t.Fatal("Contains(5) true after delete")
	}
}

// TestShardedSignedZero checks that hash partitioning treats 0 and -0,
// which the trees compare equal, as one key, with and without the
// point filter: the Put/Get/Len sequence answers as it does on a Map.
func TestShardedSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, filter := range []bool{false, true} {
		s := pbist.NewSharded[float64, int](pbist.ShardedOptions{
			Shards: 8, Partition: pbist.PartitionHash, PointFilter: filter,
		})
		m := pbist.NewMap[float64, int](pbist.Options{})
		for _, step := range []struct {
			key float64
			val int
		}{{0, 7}, {negZero, 9}} {
			if got, want := s.Put(step.key, step.val), m.Put(step.key, step.val); got != want {
				t.Fatalf("filter=%v: Put(%v, %d) inserted = %v, Map says %v", filter, step.key, step.val, got, want)
			}
			for _, k := range []float64{0, negZero} {
				gv, gok := s.Get(k)
				wv, wok := m.Get(k)
				if gv != wv || gok != wok {
					t.Fatalf("filter=%v: Get(%v) = %d,%v, Map says %d,%v", filter, k, gv, gok, wv, wok)
				}
			}
			if got, want := s.Len(), m.Len(); got != want {
				t.Fatalf("filter=%v: Len = %d, Map says %d", filter, got, want)
			}
		}
		s.Close()
	}
}

// TestShardedConstructorsAndStats covers the remaining surface:
// constructor policy resolution (and panics), per-shard epoch stats,
// Snapshot, DeleteBatch/ContainsBatch counts, Close semantics.
func TestShardedConstructorsAndStats(t *testing.T) {
	// NewSharded + PartitionRange must panic (no bounds derivable).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSharded with PartitionRange did not panic")
			}
		}()
		pbist.NewSharded[int64, uint64](pbist.ShardedOptions{Partition: pbist.PartitionRange})
	}()
	// NewShardedRange + PartitionHash must panic (span ignored).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewShardedRange with PartitionHash did not panic")
			}
		}()
		pbist.NewShardedRange[int64, uint64](pbist.ShardedOptions{Partition: pbist.PartitionHash}, 0, 100)
	}()

	s := pbist.NewShardedRange[int64, uint64](pbist.ShardedOptions{Shards: 4}, 0, 1<<20)
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards())
	}
	keys := make([]int64, 10_000)
	vals := make([]uint64, len(keys))
	r := dist.NewRNG(1)
	for i := range keys {
		keys[i] = r.Int63n(1 << 20)
		vals[i] = uint64(i)
	}
	s.PutBatch(keys, vals)
	if got := s.ContainsBatch(keys[:100]); len(got) != 100 {
		t.Fatalf("ContainsBatch returned %d answers", len(got))
	} else {
		for i, ok := range got {
			if !ok {
				t.Fatalf("ContainsBatch[%d] false for present key", i)
			}
		}
	}
	st := s.Stats()
	if st.Shards != 4 || !st.Ordered || len(st.PerShard) != 4 {
		t.Fatalf("Stats shape wrong: %+v", st)
	}
	if st.Epochs == 0 || st.Ops == 0 || st.Keys == 0 {
		t.Fatalf("aggregate stats empty: %+v", st)
	}
	// A uniform batch over the whole span must have reached every shard.
	for i, ps := range st.PerShard {
		if ps.Epochs == 0 || ps.Keys == 0 {
			t.Fatalf("shard %d saw no epochs/keys: %+v", i, ps)
		}
	}
	// The group-level ConcurrentStats: counts summed over the shards,
	// means derived from the sums, wait weighted by each shard's ops.
	var sum pbist.ConcurrentStats
	var wait time.Duration
	for _, ps := range st.PerShard {
		sum.Epochs += ps.Epochs
		sum.Ops += ps.Ops
		sum.Keys += ps.Keys
		wait += ps.MeanWait * time.Duration(ps.Ops)
	}
	if sum.Epochs != st.Epochs || sum.Ops != st.Ops || sum.Keys != st.Keys {
		t.Fatalf("aggregate %+v != per-shard sums %+v", st.ConcurrentStats, sum)
	}
	if st.MeanOps != float64(st.Ops)/float64(st.Epochs) ||
		st.MeanKeys != float64(st.Keys)/float64(st.Epochs) ||
		st.MeanWait != wait/time.Duration(st.Ops) {
		t.Fatalf("aggregate means %+v not derived from the per-shard sums", st.ConcurrentStats)
	}

	m := s.Snapshot()
	if m.Len() != s.Len() {
		t.Fatalf("Snapshot Len %d != Sharded Len %d", m.Len(), s.Len())
	}
	mk, _ := m.Items()
	sk, _ := s.Items()
	if !slices.Equal(mk, sk) {
		t.Fatal("Snapshot keys differ from Items")
	}

	if n := s.DeleteBatch(sk); n != len(sk) {
		t.Fatalf("DeleteBatch removed %d, want %d", n, len(sk))
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", s.Len())
	}

	s.Close()
	if !s.Closed() {
		t.Fatal("Closed() false after Close")
	}
	s.Close() // idempotent
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Put on closed Sharded did not panic")
			}
		}()
		s.Put(1, 1)
	}()
}

// TestShardedEmptyAndDegenerate covers empty batches, one shard, and
// empty-structure reads.
func TestShardedEmptyAndDegenerate(t *testing.T) {
	s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{Shards: 1})
	defer s.Close()
	if vals, found := s.GetBatch(nil); vals != nil || found != nil {
		t.Fatal("GetBatch(nil) not nil")
	}
	if n := s.PutBatch(nil, nil); n != 0 {
		t.Fatal("PutBatch(nil) nonzero")
	}
	if ks, vs := s.Range(0, 100); len(ks) != 0 || len(vs) != 0 {
		t.Fatal("Range on empty structure nonempty")
	}
	if s.Len() != 0 || len(s.Keys()) != 0 {
		t.Fatal("empty structure reports keys")
	}
}
