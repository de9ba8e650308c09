package core

import (
	"sync"
	"testing"

	"repro/internal/parallel"
)

// Steady-state allocation regression tests for the arena-backed
// rebuild engine: batched writes against a warmed tree must allocate a
// small, bounded amount, and recycling must beat the same churn with
// the arena disabled by a clear margin. DisableBufferReuse only turns
// off scratch recycling — chunked node storage stays on (it is pure
// layout, not a cache) — so the "fresh" baseline here already enjoys
// the chunking half of the win; the full ≥50% drop versus the
// pre-arena engine is pinned by the committed BenchmarkPutBatched /
// BenchmarkRemoveBatched -benchmem numbers and the CI allocs/op
// ceiling. The absolute ceilings below are deliberately generous
// (rebuild cadence moves the per-run average around); the relative
// assertion is the in-repo regression surface.

func seqKeys(n int, start, stride int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*stride
	}
	return out
}

// churnAllocs measures the mean allocations of one InsertBatched +
// RemoveBatched churn round against a 100k-key tree (batch 2000),
// after warming to steady state. Sequential pool: AllocsPerRun pins
// GOMAXPROCS to 1 anyway, and the sequential path is deterministic.
func churnAllocs(disable bool) float64 {
	tree := NewFromSorted(Config{DisableBufferReuse: disable}, nil, seqKeys(100_000, 0, 2))
	batch := seqKeys(2000, 1, 100) // interleaves the base range: misses and hits
	for i := 0; i < 4; i++ {
		tree.InsertBatched(batch)
		tree.RemoveBatched(batch)
	}
	return testing.AllocsPerRun(20, func() {
		tree.InsertBatched(batch)
		tree.RemoveBatched(batch)
	})
}

func TestSteadyStateChurnAllocs(t *testing.T) {
	reuse := churnAllocs(false)
	fresh := churnAllocs(true)
	t.Logf("insert+remove churn allocs/round: reuse=%.1f fresh=%.1f", reuse, fresh)
	if reuse > fresh*4/5 {
		t.Errorf("buffer reuse saves too little: %.1f allocs/round vs %.1f without reuse", reuse, fresh)
	}
	// Absolute bound: a 2000-key churn round allocates for leaf merges
	// and periodic rebuilds (observed ≈2.1k/round), but must stay well
	// under the one-allocation-per-temporary regime of the pre-arena
	// engine (>8k/round at this shape).
	if reuse > 4000 {
		t.Errorf("steady-state churn allocates %.1f per round, ceiling 4000", reuse)
	}
}

// putBatchAllocs measures PutBatched upsert rounds (mixed fresh
// inserts and value overwrites) with the inverse RemoveBatched kept
// outside the measured closure via a second batch cycle.
func TestSteadyStatePutBatchedAllocs(t *testing.T) {
	run := func(disable bool) float64 {
		tree := NewFromSortedKV(Config{DisableBufferReuse: disable}, nil,
			seqKeys(100_000, 0, 2), make([]uint64, 100_000))
		batch := seqKeys(2000, 0, 97) // every other key hits the base set
		vals := make([]uint64, len(batch))
		for i := 0; i < 4; i++ {
			tree.PutBatched(batch, vals)
			tree.RemoveBatched(batch)
		}
		return testing.AllocsPerRun(20, func() {
			tree.PutBatched(batch, vals)
			tree.RemoveBatched(batch)
		})
	}
	reuse := run(false)
	fresh := run(true)
	t.Logf("put+remove churn allocs/round: reuse=%.1f fresh=%.1f", reuse, fresh)
	if reuse > fresh*4/5 {
		t.Errorf("buffer reuse saves too little: %.1f vs %.1f", reuse, fresh)
	}
	if reuse > 4500 {
		t.Errorf("steady-state put churn allocates %.1f per round, ceiling 4500", reuse)
	}
}

func TestUnionAllocs(t *testing.T) {
	run := func(disable bool) float64 {
		cfg := Config{DisableBufferReuse: disable}
		a := NewFromSorted(cfg, nil, seqKeys(50_000, 0, 2))
		b := NewFromSorted(cfg, nil, seqKeys(5_000, 1, 20))
		a.Union(b, true) // warm the arena
		return testing.AllocsPerRun(5, func() { a.Union(b, true) })
	}
	reuse := run(false)
	fresh := run(true)
	t.Logf("union allocs/op: reuse=%.1f fresh=%.1f", reuse, fresh)
	// The chunked build benefits both sides; recycling must still
	// strictly win by removing the flatten/combine temporaries.
	if reuse >= fresh {
		t.Errorf("union with reuse allocates %.1f, no better than %.1f without", reuse, fresh)
	}
}

// TestConcurrentTreesSharedPool drives two trees that share one worker
// pool from two goroutines at once. Each tree owns its arena, so this
// must be race-free (run under -race) and each tree must end exactly
// at its oracle contents — a recycled buffer leaking across trees
// would corrupt one of them.
func TestConcurrentTreesSharedPool(t *testing.T) {
	pool := parallel.NewPool(4)
	for _, disable := range []bool{false, true} {
		name := "reuse"
		if disable {
			name = "fresh"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{LeafCap: 8, RebuildFactor: 1, DisableBufferReuse: disable}
			var wg sync.WaitGroup
			trees := make([]*Tree[int64, struct{}], 2)
			finals := make([][]int64, 2)
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Distinct key universes per tree: any cross-tree
					// buffer leak shows up as foreign keys.
					base := seqKeys(30_000, int64(g)*10_000_000, 3)
					tr := NewFromSorted(cfg, pool, base)
					oracle := make(map[int64]bool, len(base))
					for _, k := range base {
						oracle[k] = true
					}
					for round := 0; round < 25; round++ {
						ins := seqKeys(1500, int64(g)*10_000_000+int64(round), 7)
						del := seqKeys(1500, int64(g)*10_000_000+int64(round)*2, 11)
						tr.InsertBatched(ins)
						for _, k := range ins {
							oracle[k] = true
						}
						tr.RemoveBatched(del)
						for _, k := range del {
							delete(oracle, k)
						}
					}
					want := make([]int64, 0, len(oracle))
					for k := range oracle {
						want = append(want, k)
					}
					trees[g] = tr
					finals[g] = want
				}(g)
			}
			wg.Wait()
			for g := 0; g < 2; g++ {
				got := trees[g].Keys()
				if len(got) != len(finals[g]) {
					t.Fatalf("tree %d: %d keys, oracle %d", g, len(got), len(finals[g]))
				}
				seen := make(map[int64]bool, len(got))
				for i, k := range got {
					if i > 0 && got[i-1] >= k {
						t.Fatalf("tree %d: keys not strictly sorted at %d", g, i)
					}
					seen[k] = true
				}
				for _, k := range finals[g] {
					if !seen[k] {
						t.Fatalf("tree %d: missing key %d", g, k)
					}
				}
				checkInvariants(t, trees[g])
			}
		})
	}
}

// TestCloneDetached proves core Clone shares nothing mutable with the
// receiver, in both arena modes and mid-churn (dead keys, rebuild
// debt).
func TestCloneDetached(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "reuse"
		if disable {
			name = "fresh"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{LeafCap: 8, RebuildFactor: 2, DisableBufferReuse: disable}
			tr := NewFromSorted(cfg, parallel.NewPool(2), seqKeys(20_000, 0, 3))
			tr.RemoveBatched(seqKeys(3000, 0, 6)) // leave dead keys behind
			want := tr.Keys()

			cp := tr.Clone()
			if s := cp.Stats(); s.DeadKeys != 0 {
				t.Fatalf("clone carries %d dead keys; Clone must compact", s.DeadKeys)
			}
			// Mutate the original heavily; the clone must not move.
			tr.InsertBatched(seqKeys(5000, 1, 9))
			tr.RemoveBatched(seqKeys(5000, 0, 12))
			gotCp := cp.Keys()
			if len(gotCp) != len(want) {
				t.Fatalf("clone drifted after mutating original: %d vs %d keys", len(gotCp), len(want))
			}
			for i := range want {
				if gotCp[i] != want[i] {
					t.Fatalf("clone key %d drifted: %d vs %d", i, gotCp[i], want[i])
				}
			}
			// And the other direction.
			wantOrig := tr.Keys()
			cp.InsertBatched(seqKeys(4000, 2, 5))
			cp.RemoveBatched(seqKeys(4000, 0, 15))
			gotOrig := tr.Keys()
			if len(gotOrig) != len(wantOrig) {
				t.Fatalf("original drifted after mutating clone")
			}
			checkInvariants(t, tr)
			checkInvariants(t, cp)
		})
	}
}

func TestCloneEmpty(t *testing.T) {
	tr := New[int64, struct{}](Config{}, nil)
	cp := tr.Clone()
	if cp.Len() != 0 {
		t.Fatalf("clone of empty tree has %d keys", cp.Len())
	}
	cp.InsertBatched(seqKeys(100, 0, 1))
	if tr.Len() != 0 {
		t.Fatal("mutating clone of empty tree affected the original")
	}
}

// TestPublishedEpochAllocs pins the path-copy cost of one publishing
// epoch: a single-key update, insert or remove on a 2^17-key
// publishing tree, one of each in a single ApplyResolved (mixed), or
// a Delete of an absent key (miss), followed by PublishVersion. Each epoch copies one
// children array per inner level below the root on the key's path,
// the vals/exists slots only at the node whose slot it writes, and
// the leaf arrays with merge headroom, so the insert merges in place.
// In steady state the root allocates nothing: its copy reuses a
// graced spare root. Every ceiling is its measured count at the
// default H, which 50 runs in a row read unchanged.
func TestPublishedEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings are checked in the non-race run")
	}
	const n = 1 << 17
	base := seqKeys(n, 0, 2) // even keys; odd keys are fresh
	tr := NewFromSortedKV(Config{}, nil, base, make([]int64, n))
	tr.EnablePublish()
	next := 0
	key := [1]int64{}
	val := [1]int64{}
	epoch := func(op func()) func() {
		return func() {
			next++
			key[0] = base[next*7919%n] // odd stride: distinct keys
			val[0]++
			op()
			tr.PublishVersion()
		}
	}
	update := epoch(func() { tr.PutBatched(key[:], val[:]) })
	insert := epoch(func() {
		key[0]++ // odd: absent
		tr.PutBatched(key[:], val[:])
	})
	remove := epoch(func() { tr.RemoveBatched(key[:]) })
	// mixed updates key k, inserts k+1 and removes the key the previous
	// mixed epoch inserted, all in one ApplyResolved call.
	var mk, mv [3]int64
	var mf, ml [3]bool
	prev := int64(1) // odd, so absent until this Put
	tr.PutBatched([]int64{prev}, []int64{0})
	mixed := epoch(func() {
		k := key[0]
		upd, ins, rem := 0, 1, 2
		if prev < k {
			upd, ins, rem = 1, 2, 0
		}
		mk[upd], mk[ins], mk[rem] = k, k+1, prev
		mv[upd], mv[ins] = val[0], val[0]
		ml[upd], ml[ins], ml[rem] = true, true, false
		tr.ApplyResolved(mk[:], mv[:], ml[:], mf[:])
		if !mf[upd] || mf[ins] || !mf[rem] {
			panic("mixed epoch: wrong pre-write presence")
		}
		prev = k + 1
	})
	// miss deletes an absent key: it copies no node, so its epoch
	// publishes no version and allocates nothing.
	var missLive, missFound [1]bool
	miss := epoch(func() {
		key[0]++ // odd, and no other epoch inserts this one
		tr.ApplyResolved(key[:], val[:], missLive[:], missFound[:])
		if missFound[0] {
			panic("miss epoch: absent key reported present")
		}
	})
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"update", update, 6},
		{"insert", insert, 7},
		{"remove", remove, 6},
		{"mixed", mixed, 13},
		{"miss", miss, 0},
	} {
		for i := 0; i < 8; i++ {
			c.run() // warm the arena's free lists
		}
		got := testing.AllocsPerRun(200, c.run)
		t.Logf("%s epoch: %.2f allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s epoch allocates %.2f, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
