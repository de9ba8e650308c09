// Sharded: a live comparison of the concurrent frontend (pbist.Sharded)
// at 1, 4, and 16 shards — one shard being pbist.NewConcurrent's
// single combiner — under the workload sharding is built for: many
// clients submitting small write-heavy batches. One combiner
// serializes all epochs; N shards run N epochs at once, so throughput
// climbs until the shared worker pool saturates.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

const (
	clients   = 16
	batches   = 300 // mini-batches per client
	batchSize = 64  // keys per mini-batch
	keySpace  = 1 << 22
	preload   = 1 << 20
)

func main() {
	fmt.Printf("clients=%d, %d mini-batches x %d keys each (75%% put / 25%% get), GOMAXPROCS=%d\n\n",
		clients, batches, batchSize, runtime.GOMAXPROCS(0))

	seedK := dist.UniformSet(dist.NewRNG(1), preload, 0, keySpace)
	seedV := make([]uint64, len(seedK))
	for i := range seedV {
		seedV[i] = uint64(seedK[i])
	}

	configs := []struct {
		name string
		make func() *pbist.Sharded[int64, uint64]
	}{
		{"1 shard (NewConcurrent)", func() *pbist.Sharded[int64, uint64] {
			return pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{}, seedK, seedV)
		}},
		{"4 shards", func() *pbist.Sharded[int64, uint64] {
			return pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 4}, seedK, seedV)
		}},
		{"16 shards", func() *pbist.Sharded[int64, uint64] {
			return pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 16}, seedK, seedV)
		}},
	}

	var base float64
	for i, cfg := range configs {
		f := cfg.make()
		mops := drive(f)
		f.Close()
		if i == 0 {
			base = mops
		}
		speedup := mops / base
		bar := strings.Repeat("#", int(speedup*4+0.5))
		fmt.Printf("%-26s %7.2f Mkeys/s  %.2fx %s\n", cfg.name, mops, speedup, bar)
	}
}

// drive runs the client fleet against f and reports keys/s in millions.
func drive(f *pbist.Sharded[int64, uint64]) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := dist.NewRNG(uint64(id)*0x9e37 + 7)
			keys := make([]int64, batchSize)
			vals := make([]uint64, batchSize)
			for b := 0; b < batches; b++ {
				for i := range keys {
					keys[i] = r.Int63n(keySpace)
					vals[i] = r.Uint64()
				}
				if b%4 == 3 {
					f.GetBatch(keys)
				} else {
					f.PutBatch(keys, vals)
				}
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	totalKeys := float64(clients) * batches * batchSize
	return totalKeys / elapsed.Seconds() / 1e6
}
