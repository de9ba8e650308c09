package pbist

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
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
			Options: Options{Workers: 2},
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

// TestShardedHotWindowRecycleStress churns two hot windows of a
// sharded frontend with single-key writes, so most path copies are
// served by graced nodes from the free stacks, while readers hold
// reader pins across whole-version walks, read GetBatch cuts over the
// windows and take Snapshots. Every value names its key, so a node
// recycled while a reader could still reach it shows up as a pinned
// version or a snapshot that changed under its reader, or as a value
// read under another key. Run it under -race.
func TestShardedHotWindowRecycleStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			stressHotWindows(t, shards)
		})
	}
}

func stressHotWindows(t *testing.T, shards int) {
	const (
		n       = 1 << 14
		window  = 128 // base keys per hot window
		writers = 4
		rounds  = 600
	)
	code := func(k int64, round int) int64 { return k<<20 | int64(round) }
	keys := rangeKeys(0, n, 2)
	vals := make([]int64, n)
	for i, k := range keys {
		vals[i] = code(k, 0)
	}
	reg := NewMetrics()
	s := NewShardedFromItems(ShardedOptions{
		ConcurrentOptions: ConcurrentOptions{Options: Options{Workers: 2, Metrics: reg}},
		Shards:            shards,
	}, keys, vals)
	defer s.Close()
	var hot []int64 // two windows of base keys and their odd neighbours
	for _, at := range []int{n / 4, 3 * n / 4} {
		for _, k := range keys[at : at+window] {
			hot = append(hot, k, k+1)
		}
	}

	var stop atomic.Bool
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	named := func(what string, ks, vs []int64) bool {
		for i, k := range ks {
			if vs[i]>>20 != k {
				fail("%s: key %d holds %d, a value of key %d", what, k, vs[i], vs[i]>>20)
				return false
			}
		}
		return true
	}
	// same fails unless two reads of one version or snapshot agree.
	same := func(what string, k1, v1, k2, v2 []int64) bool {
		if !slices.Equal(k1, k2) || !slices.Equal(v1, v2) {
			fail("%s changed under its reader: %d keys, then %d", what, len(k1), len(k2))
			return false
		}
		return named(what, k1, v1)
	}
	var readers sync.WaitGroup
	for g := range 2 { // pinned whole-version walks
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := g; !stop.Load(); i++ {
				tr := s.trees[i%len(s.trees)]
				pin := tr.PinReader()
				v := tr.CurrentVersion()
				k1, v1 := tr.VersionItems(v)
				runtime.Gosched()
				k2, v2 := tr.VersionItems(v)
				pin.Release()
				if !same("a pinned version", k1, v1, k2, v2) {
					return
				}
			}
		}()
	}
	readers.Add(2)
	go func() { // cuts over the windows
		defer readers.Done()
		for !stop.Load() {
			vs, found := s.GetBatch(hot)
			for i, k := range hot {
				if found[i] && vs[i]>>20 != k {
					fail("GetBatch: key %d reads %d, a value of key %d", k, vs[i], vs[i]>>20)
					return
				}
			}
		}
	}()
	go func() { // snapshots, read twice with writes in between
		defer readers.Done()
		for !stop.Load() {
			snap := s.Snapshot()
			k1, v1 := snap.Items()
			runtime.Gosched()
			k2, v2 := snap.Items()
			if !same("a snapshot", k1, v1, k2, v2) {
				return
			}
		}
	}()

	want := make([]map[int64]int64, writers)
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			model := make(map[int64]int64)
			var mine []int64
			for i := g; i < len(hot); i += writers {
				k := hot[i]
				mine = append(mine, k)
				if k%2 == 0 {
					model[k] = code(k, 0)
				}
			}
			r := rand.New(rand.NewPCG(uint64(g), 36))
			for round := 1; round <= rounds && !stop.Load(); round++ {
				k := mine[r.IntN(len(mine))]
				if _, live := model[k]; live && r.IntN(3) == 0 {
					s.Delete(k)
					delete(model, k)
				} else {
					s.Put(k, code(k, round))
					model[k] = code(k, round)
				}
			}
			want[g] = model
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}
	for i, k := range hot {
		w, wok := want[i%writers][k]
		if v, ok := s.Get(k); ok != wok || v != w {
			t.Fatalf("final: Get(%d) = %d,%v, want %d,%v", k, v, ok, w, wok)
		}
	}
	c := reg.Snapshot().Counters
	t.Logf("%d path copies and %d root copies served by graced nodes",
		c["core.mvcc.paths_recycled"], c["core.mvcc.roots_recycled"])
	// One shard's Snapshot shares the live tree's nodes, which are then
	// never recycled, so only the multi-shard run must recycle.
	if shards > 1 && c["core.mvcc.paths_recycled"] == 0 {
		t.Error("no path copy was served by a graced node")
	}
}
