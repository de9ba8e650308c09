// Frontend: a client simulation of the concurrent combining view.
// Waves of client goroutines hammer one pbist.Concurrent with
// individual point operations — the worst shape for a batched engine —
// and the combiner's statistics show how the write traffic is
// coalesced back into batches: epochs track the number of active
// clients, so the engine still runs its parallel-batched traversals.
// Reads never enter the combiner; they walk the published version.
//
//	go run ./examples/frontend
package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

const (
	preload      = 200_000 // keys bulk-loaded before the simulation
	opsPerClient = 2_000
	keyspace     = 400_000
)

func main() {
	// Bulk-load the engine through the batch path, then serve clients.
	base := dist.UniformSet(dist.NewRNG(7), preload, 0, keyspace)
	vals := make([]uint64, len(base))
	for i, k := range base {
		vals[i] = uint64(k)
	}
	// The frontend is observed (Metrics set) so that Stats measures
	// how long writes wait for their epoch; an unobserved frontend
	// reads no clock and reports a MeanWait of 0.
	c := pbist.NewConcurrentFromItems(
		pbist.ConcurrentOptions{Options: pbist.Options{AssumeSorted: true, Metrics: pbist.NewMetrics()}},
		base, vals)
	defer c.Close()

	fmt.Printf("engine preloaded with %d keys; %d point ops per client (90%% reads)\n\n",
		c.Len(), opsPerClient)
	fmt.Printf("%-8s %-10s %-12s %-14s %-12s\n",
		"clients", "kops/s", "epochs", "writes/epoch", "write wait")

	prev := c.Stats()
	for _, clients := range []int{1, 2, 4, 8, 16, 32} {
		elapsed := wave(c, clients)
		st := c.Stats()
		epochs := st.Epochs - prev.Epochs
		writes := st.Ops - prev.Ops
		prev = st
		kops := float64(clients*opsPerClient) / elapsed.Seconds() / 1e3
		fmt.Printf("%-8d %-10.0f %-12d %-14.1f %-12s\n",
			clients, kops, epochs, float64(writes)/float64(epochs),
			st.MeanWait.Round(100*time.Nanosecond))
	}

	fmt.Printf("\nfinal: %d keys, %v\n", c.Len(), summarize(c.Stats().ConcurrentStats))
}

// wave runs one burst of clients issuing mixed point operations and
// returns the wall time of the burst.
func wave(c *pbist.Concurrent[int64, uint64], clients int) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			r := dist.NewRNG(uint64(id) ^ 0xf40017e0d)
			<-start
			for i := 0; i < opsPerClient; i++ {
				k := r.Int63n(keyspace)
				switch r.Uint64n(20) {
				case 0:
					c.Put(k, uint64(k))
				case 1:
					c.Delete(k)
				default:
					if v, ok := c.Get(k); ok && v != uint64(k) {
						panic("value detached from key")
					}
				}
			}
		}(int64(id))
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

func summarize(st pbist.ConcurrentStats) string {
	return fmt.Sprintf("%d writes combined into %d epochs (mean %.1f writes)",
		st.Ops, st.Epochs, st.MeanOps)
}
