package bench

import (
	"sync"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

// ShardedRow is one point of the sharded-frontend experiment:
// batched-write throughput (million keys per second) of a Sharded at
// a given shard count versus the single-combiner Concurrent baseline
// serving the same client fleet and scripts, plus the per-shard
// combining evidence — how many epochs each configuration executed
// and how evenly the keys spread over the shards.
type ShardedRow struct {
	Shards       int     // 0 = the Concurrent baseline row (one shard)
	Mops         float64 // million keys through PutBatch/GetBatch per second
	Speedup      float64 // vs the Concurrent baseline
	Epochs       int64   // total epochs across all combiners
	EpochKeys    float64 // mean keys per epoch (combining quality)
	MinShardKeys int64   // lightest shard's key count (balance floor)
	MaxShardKeys int64   // heaviest shard's key count (balance ceiling)
}

// shardedScript is one client's replayable mini-batch sequence: the
// write-heavy traffic sharding is built for — every op carries a
// small unsorted batch, 3 PutBatch : 1 GetBatch.
type shardedScript struct {
	keys [][]int64
	vals [][]uint64
}

// shardedScripts deals the rep's workload batch into per-client
// mini-batch scripts of batchKeys keys each, shuffled per client.
func shardedScripts(w Workload, rep, clients, batchKeys int) []shardedScript {
	keys := w.Batch(rep)
	per, rem := len(keys)/clients, len(keys)%clients
	scripts := make([]shardedScript, 0, clients)
	start := 0
	for c := 0; c < clients && start < len(keys); c++ {
		end := start + per
		if c < rem {
			end++
		}
		part := append([]int64(nil), keys[start:end]...)
		start = end
		r := dist.NewRNG(w.Seed ^ 0x5da4ded ^ uint64(rep)<<20 ^ uint64(c))
		for i := len(part) - 1; i > 0; i-- {
			j := int(r.Uint64n(uint64(i + 1)))
			part[i], part[j] = part[j], part[i]
		}
		var sc shardedScript
		for off := 0; off < len(part); off += batchKeys {
			hi := min(off+batchKeys, len(part))
			mk := part[off:hi]
			mv := make([]uint64, len(mk))
			for i, k := range mk {
				mv[i] = MapPayload(k)
			}
			sc.keys = append(sc.keys, mk)
			sc.vals = append(sc.vals, mv)
		}
		scripts = append(scripts, sc)
	}
	return scripts
}

// replayBatched runs every client's mini-batch script against an
// engine's batched ops (3 puts : 1 get), all clients released by one
// barrier, and returns elapsed wall time.
func replayBatched(scripts []shardedScript,
	put func([]int64, []uint64), get func([]int64)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, sc := range scripts {
		wg.Add(1)
		go func(sc shardedScript) {
			defer wg.Done()
			<-start
			for b := range sc.keys {
				if b%4 == 3 {
					get(sc.keys[b])
				} else {
					put(sc.keys[b], sc.vals[b])
				}
			}
		}(sc)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

func batchedMkeys(scripts []shardedScript, elapsed time.Duration) float64 {
	n := 0
	for _, sc := range scripts {
		for _, b := range sc.keys {
			n += len(b)
		}
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds() / 1e6
}

// RunShardedWorkload measures batched-write throughput of the sharded
// super-tree versus the single-combiner frontend: every engine is
// bulk-loaded with the base keys, then each repetition replays the
// same per-client mini-batch scripts (batchKeys-key unsorted batches,
// 3 PutBatch : 1 GetBatch) against a Concurrent baseline (row
// Shards=0) and a range-partitioned Sharded at every shard count in
// shards. Gains require real cores: N shards run up to N epochs
// concurrently, which a single core serializes right back.
func RunShardedWorkload(w Workload, clients int, shards []int, batchKeys, reps int) []ShardedRow {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	if clients < 1 {
		clients = 16
	}
	if batchKeys < 1 {
		batchKeys = 64
	}
	base := w.BaseKeys()
	baseVals := MapPayloads(base)
	opts := pbist.Options{AssumeSorted: true} // base is sorted unique

	scripts := make([][]shardedScript, reps)
	for rep := 0; rep < reps; rep++ {
		scripts[rep] = shardedScripts(w, rep, clients, batchKeys)
	}

	// The Concurrent baseline (row Shards=0) and every shard count run
	// through one loop; only the constructor differs.
	type config struct {
		shards int
		build  func() *pbist.Sharded[int64, uint64]
	}
	configs := []config{{0, func() *pbist.Sharded[int64, uint64] {
		return pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{Options: opts}, base, baseVals)
	}}}
	for _, ns := range shards {
		configs = append(configs, config{ns, func() *pbist.Sharded[int64, uint64] {
			return pbist.NewShardedFromItems(pbist.ShardedOptions{
				ConcurrentOptions: pbist.ConcurrentOptions{Options: opts},
				Shards:            ns,
			}, base, baseVals)
		}})
	}

	rows := make([]ShardedRow, 0, len(configs))
	for _, cf := range configs {
		s := cf.build()
		var total time.Duration
		for rep := 0; rep < reps; rep++ {
			total += replayBatched(scripts[rep],
				func(k []int64, v []uint64) { s.PutBatch(k, v) },
				func(k []int64) { s.GetBatch(k) })
		}
		st := s.Stats()
		s.Close()
		row := ShardedRow{
			Shards:       cf.shards,
			Mops:         batchedMkeys(scripts[0], total/time.Duration(reps)),
			Epochs:       st.Epochs,
			EpochKeys:    st.MeanKeys,
			MinShardKeys: st.PerShard[0].Keys,
		}
		for _, ps := range st.PerShard {
			row.MinShardKeys = min(row.MinShardKeys, ps.Keys)
			row.MaxShardKeys = max(row.MaxShardKeys, ps.Keys)
		}
		rows = append(rows, row)
	}
	for i := range rows {
		if rows[0].Mops > 0 {
			rows[i].Speedup = rows[i].Mops / rows[0].Mops
		}
	}
	return rows
}
