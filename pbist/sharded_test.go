package pbist_test

import (
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
// cross-shard snapshot.
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

// TestShardedRetentionBounded is the shared-arena regression test:
// the idle scratch inventory retained by a Sharded after heavy
// batched churn must be bounded by the arena's structural cap — NOT
// proportional to the shard count. A 16-shard group sharing one arena
// may not retain more than a small multiple of a 4-shard group.
func TestShardedRetentionBounded(t *testing.T) {
	churn := func(shards int) (buffers int, elems int64) {
		r := dist.NewRNG(uint64(shards))
		s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{Shards: shards})
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
		st := s.Stats()
		return st.RetainedBuffers, st.RetainedElems
	}

	b4, e4 := churn(4)
	b16, e16 := churn(16)
	t.Logf("retained: 4 shards %d buffers / %d elems; 16 shards %d buffers / %d elems", b4, e4, b16, e16)
	if b4 == 0 || b16 == 0 {
		t.Fatal("expected nonzero retained scratch after churn (reuse disabled?)")
	}
	// Shared arena: growing shards 4x must not grow retention 4x. Allow
	// 2x slack for racing per-shard release patterns.
	if b16 > 2*b4 {
		t.Fatalf("retained buffers grew with shard count: %d at 16 shards vs %d at 4", b16, b4)
	}
	if e16 > 2*e4 {
		t.Fatalf("retained elems grew with shard count: %d at 16 shards vs %d at 4", e16, e4)
	}
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
		sum.SizeFlushes += ps.SizeFlushes
		wait += ps.MeanWait * time.Duration(ps.Ops)
	}
	if sum.Epochs != st.Epochs || sum.Ops != st.Ops || sum.Keys != st.Keys || sum.SizeFlushes != st.SizeFlushes {
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

// TestShardedEmptyAndDegenerate covers empty batches, one shard,
// PrivateArenas, and empty-structure reads.
func TestShardedEmptyAndDegenerate(t *testing.T) {
	s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{Shards: 1, PrivateArenas: true})
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
	st := s.Stats()
	if st.RetainedBuffers != 0 || st.RetainedElems != 0 {
		t.Fatalf("PrivateArenas must not aggregate retention, got %d/%d", st.RetainedBuffers, st.RetainedElems)
	}
}
