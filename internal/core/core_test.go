package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// corePools are the worker configurations the batched operations are
// exercised with.
func corePools() map[string]*parallel.Pool {
	return map[string]*parallel.Pool{
		"seq": nil,
		"w2":  parallel.NewPool(2),
		"w8":  parallel.NewPool(8),
	}
}

func sortedUniqueKeys(seed int64, n int, span int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	set := make(map[int64]struct{}, n)
	for len(set) < n {
		set[r.Int63n(span)] = struct{}{}
	}
	out := make([]int64, 0, n)
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestDefaultIdealHeight pins the shape the default H gives the ideal
// tree at a benchmark shard's size (2^17 keys) and at the paper's
// (2^20): three levels. At H = 16 both grew a fourth level of 4-rep
// inner nodes over leaves of about 4 keys.
func TestDefaultIdealHeight(t *testing.T) {
	for _, n := range []int{1 << 17, 1 << 20} {
		keys := sortedUniqueKeys(int64(n), n, 1<<40)
		s := NewFromSorted(Config{}, nil, keys).Stats()
		t.Logf("n = %d: height %d, %d nodes, %d leaves", n, s.Height, s.Nodes, s.Leaves)
		if s.Height != 3 {
			t.Errorf("n = %d: ideal tree has height %d, want 3", n, s.Height)
		}
	}
}

func TestEmptyTreeBatches(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			tr := New[int64, struct{}](Config{}, p)
			if got := tr.ContainsBatched([]int64{1, 2, 3}); slices.Contains(got, true) {
				t.Fatal("empty tree claims to contain keys")
			}
			if n := tr.RemoveBatched([]int64{1, 2, 3}); n != 0 {
				t.Fatalf("removed %d keys from empty tree", n)
			}
			if n := tr.InsertBatched(nil); n != 0 {
				t.Fatal("empty insert batch inserted keys")
			}
			if tr.Len() != 0 || tr.Keys() != nil {
				t.Fatal("tree not empty after no-op batches")
			}
		})
	}
}

func TestInsertBatchedIntoEmptyTree(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			keys := sortedUniqueKeys(1, 10000, 1<<40)
			tr := New[int64, struct{}](Config{}, p)
			if n := tr.InsertBatched(keys); n != len(keys) {
				t.Fatalf("inserted %d, want %d", n, len(keys))
			}
			if tr.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
			}
			if !slices.Equal(tr.Keys(), keys) {
				t.Fatal("Keys() does not match inserted batch")
			}
			res := tr.ContainsBatched(keys)
			for i, ok := range res {
				if !ok {
					t.Fatalf("key %d missing after insert", keys[i])
				}
			}
		})
	}
}

func TestContainsBatchedMixedPresentAbsent(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			// Even keys present, odd keys absent.
			var present, probe []int64
			var want []bool
			for i := int64(0); i < 20000; i += 2 {
				present = append(present, i)
			}
			for i := int64(0); i < 20000; i++ {
				probe = append(probe, i)
				want = append(want, i%2 == 0)
			}
			tr := NewFromSorted(Config{}, p, present)
			got := tr.ContainsBatched(probe)
			if !slices.Equal(got, want) {
				t.Fatal("membership vector mismatch")
			}
		})
	}
}

func TestInsertBatchedSkipsDuplicates(t *testing.T) {
	tr := NewFromSorted(Config{}, parallel.NewPool(4), []int64{1, 3, 5, 7, 9})
	// §5's example: inserting [2 4 5 7 8] into {1 3 5 7 9} inserts
	// only [2 4 8].
	if n := tr.InsertBatched([]int64{2, 4, 5, 7, 8}); n != 3 {
		t.Fatalf("inserted %d keys, want 3", n)
	}
	want := []int64{1, 2, 3, 4, 5, 7, 8, 9}
	if !slices.Equal(tr.Keys(), want) {
		t.Fatalf("Keys() = %v, want %v", tr.Keys(), want)
	}
}

func TestRemoveBatchedSkipsAbsent(t *testing.T) {
	tr := NewFromSorted(Config{}, parallel.NewPool(4), []int64{1, 3, 5, 7, 9})
	// §6's example: removing [2 3 6 7 9] from {1 3 5 7 9} removes
	// only [3 7 9].
	if n := tr.RemoveBatched([]int64{2, 3, 6, 7, 9}); n != 3 {
		t.Fatalf("removed %d keys, want 3", n)
	}
	want := []int64{1, 5}
	if !slices.Equal(tr.Keys(), want) {
		t.Fatalf("Keys() = %v, want %v", tr.Keys(), want)
	}
}

func TestReviveBatch(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			keys := sortedUniqueKeys(7, 5000, 1<<30)
			tr := NewFromSorted(Config{}, p, keys)
			dead := keys[1000:3000]
			if n := tr.RemoveBatched(dead); n != len(dead) {
				t.Fatalf("removed %d, want %d", n, len(dead))
			}
			// Reinserting the same keys must revive them in place.
			if n := tr.InsertBatched(dead); n != len(dead) {
				t.Fatalf("revived %d, want %d", n, len(dead))
			}
			if !slices.Equal(tr.Keys(), keys) {
				t.Fatal("set contents wrong after remove+revive")
			}
		})
	}
}

func TestScalarWrappers(t *testing.T) {
	tr := New[int64, struct{}](Config{}, nil)
	if !tr.Insert(5) || tr.Insert(5) {
		t.Fatal("scalar Insert semantics wrong")
	}
	if !tr.Contains(5) || tr.Contains(6) {
		t.Fatal("scalar Contains semantics wrong")
	}
	if !tr.Remove(5) || tr.Remove(5) {
		t.Fatal("scalar Remove semantics wrong")
	}
}

func TestSetPool(t *testing.T) {
	tr := New[int64, struct{}](Config{}, nil)
	if tr.Pool().Workers() != 1 {
		t.Fatal("nil pool should report one worker")
	}
	p := parallel.NewPool(4)
	tr.SetPool(p)
	if tr.Pool() != p {
		t.Fatal("SetPool did not take effect")
	}
	tr.InsertBatched([]int64{1, 2, 3})
	if tr.Len() != 3 {
		t.Fatal("tree broken after pool swap")
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	keys := sortedUniqueKeys(9, 30000, 1<<35)
	bulk := NewFromSorted(Config{}, parallel.NewPool(8), keys)
	incr := New[int64, struct{}](Config{}, parallel.NewPool(8))
	for lo := 0; lo < len(keys); lo += 1000 {
		hi := min(lo+1000, len(keys))
		batch := slices.Clone(keys[lo:hi])
		incr.InsertBatched(batch)
	}
	if !slices.Equal(bulk.Keys(), incr.Keys()) {
		t.Fatal("bulk-loaded and incrementally built trees disagree")
	}
}

func TestResultsIndependentOfWorkerCount(t *testing.T) {
	// The same operation sequence must produce identical observable
	// results on every pool width — batched parallelism must be
	// invisible.
	base := sortedUniqueKeys(11, 20000, 1<<34)
	probes := sortedUniqueKeys(12, 20000, 1<<34)
	ins := sortedUniqueKeys(13, 10000, 1<<34)
	rem := sortedUniqueKeys(14, 10000, 1<<34)

	type outcome struct {
		contains []bool
		nIns     int
		nRem     int
		keys     []int64
	}
	run := func(p *parallel.Pool) outcome {
		tr := NewFromSorted(Config{}, p, base)
		var o outcome
		o.contains = tr.ContainsBatched(probes)
		o.nIns = tr.InsertBatched(ins)
		o.nRem = tr.RemoveBatched(rem)
		o.keys = tr.Keys()
		return o
	}
	ref := run(nil)
	for _, w := range []int{2, 4, 8, 16} {
		got := run(parallel.NewPool(w))
		if !slices.Equal(got.contains, ref.contains) || got.nIns != ref.nIns ||
			got.nRem != ref.nRem || !slices.Equal(got.keys, ref.keys) {
			t.Fatalf("results differ between 1 and %d workers", w)
		}
	}
}

func TestTraverseModesAgree(t *testing.T) {
	base := sortedUniqueKeys(21, 30000, 1<<34)
	probes := sortedUniqueKeys(22, 30000, 1<<34)
	ins := sortedUniqueKeys(23, 15000, 1<<34)
	rem := sortedUniqueKeys(24, 15000, 1<<34)
	p := parallel.NewPool(8)

	run := func(mode TraverseMode) ([]bool, []int64) {
		tr := NewFromSorted(Config{Traverse: mode}, p, base)
		res := tr.ContainsBatched(probes)
		tr.InsertBatched(ins)
		tr.RemoveBatched(rem)
		return res, tr.Keys()
	}
	iRes, iKeys := run(TraverseInterpolation)
	rRes, rKeys := run(TraverseRank)
	if !slices.Equal(iRes, rRes) {
		t.Fatal("traverse modes give different membership answers")
	}
	if !slices.Equal(iKeys, rKeys) {
		t.Fatal("traverse modes give different final sets")
	}
}
