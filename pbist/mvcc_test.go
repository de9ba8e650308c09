package pbist_test

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pbist"
)

// TestFastReadsLinearizable checks the core contract of the wait-free
// read path: an operation that has completed is always visible to
// GetFast/ContainsFast, because the combiner publishes a version
// before waking the epoch's clients.
func TestFastReadsLinearizable(t *testing.T) {
	c := pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
	defer c.Close()
	for i := int64(0); i < 2000; i++ {
		c.Put(i, uint64(i)*3)
		if v, ok := c.GetFast(i); !ok || v != uint64(i)*3 {
			t.Fatalf("GetFast(%d) = %d,%v after Put returned", i, v, ok)
		}
		if !c.ContainsFast(i) {
			t.Fatalf("ContainsFast(%d) false after Put returned", i)
		}
	}
	for i := int64(0); i < 2000; i += 2 {
		c.Delete(i)
		if c.ContainsFast(i) {
			t.Fatalf("ContainsFast(%d) true after Delete returned", i)
		}
	}
	if v, ok := c.GetFast(1); !ok || v != 3 {
		t.Fatalf("GetFast(1) = %d,%v", v, ok)
	}
}

// TestSnapshotOracleDifferential drives a Concurrent with random
// batched mutations against a map oracle and, at every fence, checks
// the O(changed) Snapshot against both the oracle and the combiner's
// own Items — then keeps mutating and re-verifies that the snapshot
// stayed frozen and that mutating the snapshot never leaks into the
// live structure.
func TestSnapshotOracleDifferential(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 9))
	c := pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
	defer c.Close()
	oracle := map[int64]uint64{}

	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		nk := 1 + r.IntN(400)
		ks := make([]int64, nk)
		vs := make([]uint64, nk)
		for i := range ks {
			ks[i] = int64(r.IntN(3000))
			vs[i] = r.Uint64()
		}
		if r.IntN(4) == 0 {
			c.DeleteBatch(ks)
			for _, k := range ks {
				delete(oracle, k)
			}
		} else {
			c.PutBatch(ks, vs)
			for i, k := range ks {
				oracle[k] = vs[i]
			}
		}

		snap := c.Snapshot()
		wantK := slices.Sorted(maps.Keys(oracle))
		gotK, gotV := snap.Items()
		if !slices.Equal(gotK, wantK) {
			t.Fatalf("round %d: snapshot keys diverge from oracle", round)
		}
		for i, k := range gotK {
			if gotV[i] != oracle[k] {
				t.Fatalf("round %d: snapshot val[%d] = %d, oracle %d", round, gotV[i], i, oracle[k])
			}
		}
		liveK, _ := c.Items()
		if !slices.Equal(liveK, wantK) {
			t.Fatalf("round %d: Items diverges from oracle", round)
		}

		// Churn the live structure, then re-verify the snapshot froze.
		c.PutBatch(ks, ks2vals(ks))
		if k2, _ := snap.Items(); !slices.Equal(k2, wantK) {
			t.Fatalf("round %d: snapshot mutated by live writes", round)
		}
		for i, k := range ks {
			oracle[k] = uint64(ks[i]) + 1
		}

		// Mutating the snapshot must never disturb the live structure.
		snap.Put(-int64(round)-1, 42)
		if c.ContainsFast(-int64(round) - 1) {
			t.Fatalf("round %d: snapshot write leaked into live structure", round)
		}
	}
}

func ks2vals(ks []int64) []uint64 {
	vs := make([]uint64, len(ks))
	for i, k := range ks {
		vs[i] = uint64(k) + 1
	}
	return vs
}

// TestFastReadStressAcrossClose hammers the wait-free read path from
// many goroutines while writers churn enough keys to force rebuilds
// (and hence chunk retirement and reclamation underneath), then closes
// the frontend mid-flight and checks that the version readers keep
// serving the final published state. Run under -race this doubles as
// the reclamation-boundary data-race check: readers walk chunk-backed
// storage while the combiner retires and recycles chunks.
func TestFastReadStressAcrossClose(t *testing.T) {
	c := pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
	const span = 4096
	writers, readers := 2, 2
	steps := 120
	if testing.Short() {
		writers, readers, steps = 1, 2, 40
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var halfOnce sync.Once
	half := make(chan struct{}) // closed when writer 0 passes steps/2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int, seed uint64) {
			defer wg.Done()
			// Close races the writers by design: a writer caught
			// mid-submit panics with the closed-frontend message,
			// which is its documented outcome — swallow it and stop.
			defer func() { _ = recover() }()
			r := rand.New(rand.NewPCG(seed, seed^0xabc))
			for s := 0; s < steps; s++ {
				if w == 0 && s == steps/2 {
					halfOnce.Do(func() { close(half) })
				}
				ks := make([]int64, 256)
				vs := make([]uint64, 256)
				for i := range ks {
					ks[i] = int64(r.IntN(span))
					vs[i] = r.Uint64() | 1
				}
				if s%5 == 4 {
					c.DeleteBatch(ks[:64])
				} else {
					c.PutBatch(ks, vs)
				}
			}
			halfOnce.Do(func() { close(half) })
		}(w, uint64(w)+1)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed^0x55, seed))
			for !stop.Load() {
				k := int64(r.IntN(span))
				v, ok := c.GetFast(k)
				if ok && v == 0 {
					t.Error("GetFast returned ok with a value no writer stores")
					return
				}
				if r.IntN(64) == 0 {
					snap := c.Snapshot()
					sk, sv := snap.Items()
					for i := range sk {
						if sv[i] == 0 {
							t.Error("snapshot holds a value no writer stores")
							return
						}
					}
				}
				// Yield between wait-free reads: on a small GOMAXPROCS a
				// spinning reader would otherwise starve the combiner
				// round trips the writers depend on.
				runtime.Gosched()
			}
		}(uint64(g) + 101)
	}

	// Close once real churn has happened (half the write steps), with
	// writers and readers still running: the combiner drains, publishes
	// its final state, and the wait-free paths must keep answering.
	<-half
	wgWriters := make(chan struct{})
	go func() { wg.Wait(); close(wgWriters) }()
	c.Close()
	stop.Store(true)
	<-wgWriters

	if !c.Closed() {
		t.Fatal("Closed() false after Close")
	}
	// Version readers survive Close; the queue paths panic.
	final := c.Snapshot()
	finalK, finalV := final.Items()
	for i, k := range finalK {
		if v, ok := c.GetFast(k); !ok || v != finalV[i] {
			t.Fatalf("post-Close GetFast(%d) = %d,%v, want %d", k, v, ok, finalV[i])
		}
	}
	if n := c.Len(); n != len(finalK) {
		t.Fatalf("post-Close Len = %d, want %d", n, len(finalK))
	}
	if k := c.Keys(); !slices.Equal(k, finalK) {
		t.Fatal("post-Close Keys differ from the final snapshot")
	}
	if k, v := c.Items(); !slices.Equal(k, finalK) || !slices.Equal(v, finalV) {
		t.Fatal("post-Close Items differ from the final snapshot")
	}
	// The batched reads answer from the final version as well, small
	// and large: every key of the span, present or not, in descending
	// order four times over (16k keys, answered by a sorted traversal),
	// and the first 512 of those (answered key by key).
	probe := make([]int64, 4*span)
	for i := range probe {
		probe[i] = span - 1 - int64(i%span)
	}
	for _, batch := range [][]int64{probe[:512], probe} {
		gotV, gotF := c.GetBatch(batch)
		gotC := c.ContainsBatch(batch)
		for i, k := range batch {
			j, want := slices.BinarySearch(finalK, k)
			if gotF[i] != want || gotC[i] != want || (want && gotV[i] != finalV[j]) {
				t.Fatalf("post-Close key %d of %d: GetBatch = %d,%v, ContainsBatch = %v; final snapshot present=%v",
					k, len(batch), gotV[i], gotF[i], gotC[i], want)
			}
		}
	}
	wantK, wantV := final.Range(span/4, 3*span/4)
	if k, v := c.Range(span/4, 3*span/4); !slices.Equal(k, wantK) || !slices.Equal(v, wantV) {
		t.Fatal("post-Close Range differs from the final snapshot")
	}
	var ak []int64
	var av []uint64
	for k, v := range c.Ascend(span/4, 3*span/4) {
		ak, av = append(ak, k), append(av, v)
	}
	if !slices.Equal(ak, wantK) || !slices.Equal(av, wantV) {
		t.Fatal("post-Close Ascend differs from the final snapshot")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get on closed Concurrent did not panic")
			}
		}()
		c.Get(1)
	}()
}

// TestShardedFastReads checks GetFast/ContainsFast against the oracle
// across the shard configurations (including filtered ones, where a
// Bloom miss answers without touching the shard tree), and that the
// fast path keeps serving after Close.
func TestShardedFastReads(t *testing.T) {
	for name, cfg := range shardedConfigs() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(11, 13))
			n := 4000
			ks := make([]int64, n)
			vs := make([]uint64, n)
			for i := range ks {
				ks[i] = int64(r.IntN(1 << 20))
				vs[i] = uint64(i)
			}
			s := newShardedForTest(cfg, ks, vs)
			oracle := map[int64]uint64{}
			for i, k := range ks {
				oracle[k] = vs[i]
			}
			for k, v := range oracle {
				if got, ok := s.GetFast(k); !ok || got != v {
					t.Fatalf("GetFast(%d) = %d,%v, want %d", k, got, ok, v)
				}
			}
			for i := 0; i < 2000; i++ {
				k := int64(r.IntN(1 << 21))
				_, want := oracle[k]
				if s.ContainsFast(k) != want {
					t.Fatalf("ContainsFast(%d) != %v", k, want)
				}
			}
			s.Close()
			// Version readers survive Close on Sharded too.
			if got, ok := s.GetFast(ks[0]); !ok || got != oracle[ks[0]] {
				t.Fatalf("post-Close GetFast = %d,%v", got, ok)
			}
			if s.Len() != len(oracle) {
				t.Fatalf("post-Close Len = %d, want %d", s.Len(), len(oracle))
			}
		})
	}
}

// TestShardedCutConsistency is the regression test for the torn
// cross-shard read the atomic cut retires. A writer updates a key on
// shard A and then — strictly after that Put returned — a key on
// shard B with the same round number. Any whole-structure read
// therefore observes round(B) <= round(A) in every state that ever
// existed; per-shard reads could observe B's update without A's (B
// read late, A read early), inventing a state that never was. With the
// cut, Items, Range, and GetBatch capture all the shards they read at
// one instant, so the readers rotate through the three.
//
// Range partitioning over [0, 1000) with 4 shards puts 10 on the first
// shard and 990 on the last deterministically, and both orientations
// run, because each catches a different torn read: a read that visits
// the shards one after another from the first reads A early when A is
// on the first shard, and a read that fans out one task per shard tends
// to reach the shard it started last first, reading A early when A is
// on the last shard.
func TestShardedCutConsistency(t *testing.T) {
	for _, c := range []struct{ a, b int64 }{{10, 990}, {990, 10}} {
		t.Run(fmt.Sprintf("A=%d,B=%d", c.a, c.b), func(t *testing.T) {
			cutConsistency(t, c.a, c.b)
		})
	}
}

func cutConsistency(t *testing.T, keyA, keyB int64) {
	s := pbist.NewShardedRange[int64, uint64](pbist.ShardedOptions{Shards: 4}, 0, 1000)
	defer s.Close()
	s.Put(keyA, 0)
	s.Put(keyB, 0)

	rounds := 150
	if testing.Short() {
		rounds = 40
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := uint64(1); r <= uint64(rounds); r++ {
			s.Put(keyA, r) // completes before B starts
			s.Put(keyB, r)
		}
		stop.Store(true)
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				var ks []int64
				var vs []uint64
				how := "GetBatch"
				switch i % 3 {
				case 0:
					how = "Items"
					ks, vs = s.Items()
				case 1:
					how = "Range"
					ks, vs = s.Range(min(keyA, keyB), max(keyA, keyB))
				case 2:
					ks = []int64{keyA, keyB}
					vs, _ = s.GetBatch(ks)
				}
				var va, vb uint64
				for i, k := range ks {
					switch k {
					case keyA:
						va = vs[i]
					case keyB:
						vb = vs[i]
					}
				}
				if vb > va {
					t.Errorf("torn cut in %s: round(B)=%d > round(A)=%d", how, vb, va)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// TestShardedLenMonotone runs insert-only writers against concurrent
// Len readers: with the atomic cut, every Len is the size of a state
// that actually existed, so the sequence of observations from one
// reader is non-decreasing.
func TestShardedLenMonotone(t *testing.T) {
	s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{Shards: 4})
	defer s.Close()
	n := 6000
	if testing.Short() {
		n = 1500
	}
	const chunk = 100 // distinct keys per PutBatch: inserts only
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			ks := make([]int64, chunk)
			vs := make([]uint64, chunk)
			for i := int64(0); i < int64(n); i += chunk {
				for j := range ks {
					ks[j] = base + i + int64(j)
					vs[j] = 1
				}
				s.PutBatch(ks, vs)
			}
		}(int64(w) * int64(n))
	}
	go func() { wg.Wait(); stop.Store(true) }()
	prev := -1
	for !stop.Load() {
		if l := s.Len(); l < prev {
			t.Fatalf("Len went backwards: %d after %d", l, prev)
		} else {
			prev = l
		}
		runtime.Gosched()
	}
	wg.Wait()
	if got := s.Len(); got != 2*n {
		t.Fatalf("final Len = %d, want %d", got, 2*n)
	}
}
