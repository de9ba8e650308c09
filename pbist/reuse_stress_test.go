package pbist

import (
	"sync"
	"testing"
	"time"
)

// Race-mode stress for the recycled epoch buffers of the Concurrent
// frontend and the per-tree arenas behind it. Run under -race these
// tests prove that (a) a buffer recycled by one epoch is never still
// reachable from a previous epoch's clients, and (b) recycled buffers
// never cross between two engines, even when their owning frontends
// run flat out at the same time. Exact per-key oracles catch silent
// value corruption that a data-race detector alone would miss.

func stressConcurrent(t *testing.T, reuseOff bool) {
	const (
		clients = 16
		rounds  = 300
		keys    = 512 // small universe: heavy same-key contention
	)
	c := NewConcurrent[int64, int64](ConcurrentOptions{
		Options: Options{Workers: 4, disableReuse: reuseOff},
		// Tiny epochs + near-zero wait: maximize epoch count so
		// buffers recycle as often as possible.
		MaxBatch: 64,
		MaxWait:  50 * time.Microsecond,
	})
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * keys
			for i := 0; i < rounds; i++ {
				k := base + int64(i%keys)
				want := base*1_000_003 + int64(i)
				c.Put(k, want)
				if got, ok := c.Get(k); !ok || got != want {
					t.Errorf("client %d: Get(%d) = (%d, %v), want %d", g, k, got, ok, want)
					return
				}
				if i%7 == 0 {
					c.Delete(k)
					if _, ok := c.Get(k); ok {
						t.Errorf("client %d: key %d survived delete", g, k)
						return
					}
					c.Put(k, want)
				}
				if i%50 == 0 {
					// Snapshots interleave whole-tree reads with the
					// recycled write batches of neighboring epochs.
					ks, vs := c.Items()
					if len(ks) != len(vs) {
						t.Errorf("snapshot misaligned: %d keys, %d vals", len(ks), len(vs))
						return
					}
					for j := 1; j < len(ks); j++ {
						if ks[j-1] >= ks[j] {
							t.Errorf("snapshot keys unsorted at %d", j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every client's final key set is intact: client g owns keys
	// [g·keys, (g+1)·keys) exclusively, so cross-epoch or cross-client
	// buffer leaks surface as missing or foreign values here.
	for g := 0; g < clients; g++ {
		base := int64(g) * keys
		k := base + int64((rounds-1)%keys)
		want := base*1_000_003 + int64(rounds-1)
		if got, ok := c.Get(k); !ok || got != want {
			t.Fatalf("post-stress: client %d key %d = (%d, %v), want %d", g, k, got, ok, want)
		}
	}
}

func TestConcurrentEpochBufferReuseStress(t *testing.T) {
	t.Run("reuseOn", func(t *testing.T) { stressConcurrent(t, false) })
	t.Run("reuseOff", func(t *testing.T) { stressConcurrent(t, true) })
}

// TestTwoConcurrentFrontends runs two independent frontends flat out
// in one process: their engines own disjoint arenas, so nothing — not
// scratch buffers, not chunk storage — may bleed between them.
func TestTwoConcurrentFrontends(t *testing.T) {
	const n = 4000
	mk := func(tag int64) *Concurrent[int64, int64] {
		keys := rangeKeys(tag*1_000_000, n, 1)
		vals := make([]int64, n)
		for i, k := range keys {
			vals[i] = k ^ tag
		}
		return NewConcurrentFromItems(ConcurrentOptions{
			Options:  Options{Workers: 2},
			MaxBatch: 128,
		}, keys, vals)
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, tag := a, int64(1)
			if g%2 == 1 {
				c, tag = b, int64(2)
			}
			base := tag * 1_000_000
			for i := 0; i < 500; i++ {
				k := base + int64(i%n)
				c.Put(k, k^tag^int64(i))
				if got, ok := c.Get(k); !ok || got != k^tag^int64(i) {
					t.Errorf("frontend %d: wrong value for %d: %d", tag, k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Neither tree picked up the other's key universe.
	ka, _ := a.Items()
	for _, k := range ka {
		if k < 1_000_000 || k >= 2_000_000 {
			t.Fatalf("frontend A holds foreign key %d", k)
		}
	}
	kb, _ := b.Items()
	for _, k := range kb {
		if k < 2_000_000 || k >= 3_000_000 {
			t.Fatalf("frontend B holds foreign key %d", k)
		}
	}
}
