package pbist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func shuffled(r *rand.Rand, keys []int64) []int64 {
	out := slices.Clone(keys)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func distinct(r *rand.Rand, n int, span int64) []int64 {
	set := map[int64]struct{}{}
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

func TestZeroOptionsDefaults(t *testing.T) {
	tr := New[int64](Options{})
	if tr.Workers() < 1 {
		t.Fatal("default workers < 1")
	}
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
}

func TestNewFromKeysUnsortedWithDuplicates(t *testing.T) {
	in := []int64{5, 3, 9, 3, 1, 9, 9, 7}
	tr := NewFromKeys(Options{Workers: 4}, in)
	want := []int64{1, 3, 5, 7, 9}
	if !slices.Equal(tr.Keys(), want) {
		t.Fatalf("Keys() = %v, want %v", tr.Keys(), want)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	// Caller's slice must be untouched.
	if !slices.Equal(in, []int64{5, 3, 9, 3, 1, 9, 9, 7}) {
		t.Fatal("NewFromKeys mutated its input")
	}
}

func TestContainsBatchPreservesInputOrder(t *testing.T) {
	tr := NewFromKeys(Options{Workers: 4}, []int64{2, 4, 6, 8})
	in := []int64{9, 2, 2, 5, 8, 1, 4}
	want := []bool{false, true, true, false, true, false, true}
	got := tr.ContainsBatch(in)
	if !slices.Equal(got, want) {
		t.Fatalf("ContainsBatch(%v) = %v, want %v", in, got, want)
	}
}

func TestInsertRemoveBatchUnsorted(t *testing.T) {
	tr := New[int64](Options{Workers: 4})
	if n := tr.InsertBatch([]int64{5, 1, 3, 1, 5}); n != 3 {
		t.Fatalf("InsertBatch inserted %d, want 3", n)
	}
	if n := tr.InsertBatch([]int64{3, 2}); n != 1 {
		t.Fatalf("second InsertBatch inserted %d, want 1", n)
	}
	if n := tr.RemoveBatch([]int64{9, 5, 5, 2}); n != 2 {
		t.Fatalf("RemoveBatch removed %d, want 2", n)
	}
	if !slices.Equal(tr.Keys(), []int64{1, 3}) {
		t.Fatalf("Keys() = %v", tr.Keys())
	}
}

func TestIntersection(t *testing.T) {
	tr := NewFromKeys(Options{Workers: 2}, []int64{1, 3, 5, 7, 9})
	got := tr.Intersection([]int64{9, 4, 3, 3, 10})
	if !slices.Equal(got, []int64{3, 9}) {
		t.Fatalf("Intersection = %v, want [3 9]", got)
	}
	if tr.Len() != 5 {
		t.Fatal("Intersection modified the set")
	}
	if tr.Intersection(nil) != nil {
		t.Fatal("empty intersection should be nil")
	}
}

func TestDifference(t *testing.T) {
	tr := NewFromKeys(Options{Workers: 2}, []int64{1, 3, 5, 7, 9})
	got := tr.Difference([]int64{9, 4, 3, 3, 10})
	if !slices.Equal(got, []int64{1, 5, 7}) {
		t.Fatalf("Difference = %v, want [1 5 7]", got)
	}
	if tr.Len() != 5 {
		t.Fatal("Difference modified the set")
	}
	if got := tr.Difference(nil); !slices.Equal(got, []int64{1, 3, 5, 7, 9}) {
		t.Fatalf("Difference(nil) = %v, want the whole set", got)
	}
	// Intersection and Difference partition the set for any batch.
	batch := []int64{2, 3, 7, 8}
	inter := tr.Intersection(batch)
	diff := tr.Difference(batch)
	if len(inter)+len(diff) != tr.Len() {
		t.Fatalf("|A∩B| + |A\\B| = %d + %d != |A| = %d", len(inter), len(diff), tr.Len())
	}
	if empty := New[int64](Options{}); len(empty.Difference(batch)) != 0 {
		t.Fatal("Difference on empty set must be empty")
	}
}

func TestSetIterators(t *testing.T) {
	tr := NewFromKeys(Options{Workers: 2, LeafCap: 4}, []int64{5, 1, 9, 3, 7})
	var got []int64
	for k := range tr.All() {
		got = append(got, k)
	}
	if !slices.Equal(got, []int64{1, 3, 5, 7, 9}) {
		t.Fatalf("All = %v", got)
	}
	got = got[:0]
	for k := range tr.Ascend(3, 7) {
		got = append(got, k)
	}
	if !slices.Equal(got, []int64{3, 5, 7}) {
		t.Fatalf("Ascend(3,7) = %v", got)
	}
	n := 0
	for range tr.All() {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early break visited %d keys", n)
	}
}

func TestScalarOps(t *testing.T) {
	tr := New[int](Options{Workers: 1})
	if !tr.Insert(10) || tr.Insert(10) {
		t.Fatal("Insert semantics wrong")
	}
	if !tr.Contains(10) || tr.Contains(11) {
		t.Fatal("Contains semantics wrong")
	}
	if !tr.Remove(10) || tr.Remove(10) {
		t.Fatal("Remove semantics wrong")
	}
}

func TestSetWorkers(t *testing.T) {
	tr := NewFromKeys(Options{Workers: 1}, []int64{1, 2, 3})
	tr.SetWorkers(8)
	if tr.Workers() != 8 {
		t.Fatalf("Workers = %d, want 8", tr.Workers())
	}
	tr.InsertBatch([]int64{4, 5})
	if tr.Len() != 5 {
		t.Fatal("tree broken after SetWorkers")
	}
	tr.SetWorkers(0)
	if tr.Workers() < 1 {
		t.Fatal("SetWorkers(0) should select machine parallelism")
	}
}

func TestAssumeSortedFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keys := distinct(r, 5000, 1<<30)
	tr := NewFromKeys(Options{Workers: 4, AssumeSorted: true}, keys)
	if tr.Len() != len(keys) {
		t.Fatal("bulk load with AssumeSorted failed")
	}
	probe := distinct(r, 1000, 1<<30)
	res := tr.ContainsBatch(probe)
	for i, k := range probe {
		if _, want := slices.BinarySearch(keys, k); res[i] != want {
			t.Fatalf("ContainsBatch[%d] wrong", i)
		}
	}
}

func TestRankTraversalOption(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	keys := distinct(r, 20000, 1<<30)
	probes := distinct(r, 5000, 1<<30)
	def := NewFromKeys(Options{Workers: 4}, keys)
	rank := NewFromKeys(Options{Workers: 4, RankTraversal: true}, keys)
	if !slices.Equal(def.ContainsBatch(probes), rank.ContainsBatch(probes)) {
		t.Fatal("RankTraversal changes answers")
	}
}

func TestDifferentialAgainstMap(t *testing.T) {
	tr := New[int64](Options{Workers: 4, LeafCap: 8, RebuildFactor: 2})
	ref := map[int64]bool{}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := r.Intn(500)
		batch := make([]int64, n) // unsorted, possibly duplicated
		for i := range batch {
			batch[i] = r.Int63n(3000)
		}
		switch round % 3 {
		case 0:
			want := 0
			for _, k := range batch {
				if !ref[k] {
					ref[k] = true
					want++
				}
			}
			if got := tr.InsertBatch(batch); got != want {
				t.Fatalf("round %d: InsertBatch = %d, want %d", round, got, want)
			}
		case 1:
			want := 0
			for _, k := range batch {
				if ref[k] {
					delete(ref, k)
					want++
				}
			}
			if got := tr.RemoveBatch(batch); got != want {
				t.Fatalf("round %d: RemoveBatch = %d, want %d", round, got, want)
			}
		default:
			got := tr.ContainsBatch(batch)
			for i, k := range batch {
				if got[i] != ref[k] {
					t.Fatalf("round %d: ContainsBatch[%d] = %v, want %v", round, i, got[i], ref[k])
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, tr.Len(), len(ref))
		}
	}
}

func TestStatsAndHeight(t *testing.T) {
	keys := make([]int64, 100000)
	for i := range keys {
		keys[i] = int64(i * 7)
	}
	tr := NewFromKeys(Options{Workers: 8}, keys)
	s := tr.Stats()
	if s.LiveKeys != len(keys) || s.DeadKeys != 0 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.Height != tr.Height() {
		t.Fatal("Stats.Height and Height() disagree")
	}
	if s.Height > 6 {
		t.Fatalf("height %d too large for ideally built 10^5 keys", s.Height)
	}
	if s.RootRepLen < 150 || s.RootRepLen > 640 {
		t.Fatalf("root rep %d not Θ(√n)", s.RootRepLen)
	}
	tr.RemoveBatch(keys[:10])
	if s := tr.Stats(); s.DeadKeys == 0 {
		t.Fatal("logical removals should leave dead keys")
	}
}

func TestEmptyBatches(t *testing.T) {
	tr := New[int64](Options{})
	if tr.ContainsBatch(nil) != nil {
		t.Fatal("ContainsBatch(nil) should be nil")
	}
	if tr.InsertBatch(nil) != 0 || tr.RemoveBatch(nil) != 0 {
		t.Fatal("empty batches should be no-ops")
	}
}

func TestQuickBatchOrderInsensitivity(t *testing.T) {
	// Inserting any permutation of a batch yields the same set.
	prop := func(raw []int32, seed int64) bool {
		keys := make([]int64, len(raw))
		for i, v := range raw {
			keys[i] = int64(v)
		}
		r := rand.New(rand.NewSource(seed))
		a := New[int64](Options{Workers: 2})
		a.InsertBatch(keys)
		b := New[int64](Options{Workers: 2})
		b.InsertBatch(shuffled(r, keys))
		return slices.Equal(a.Keys(), b.Keys())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUintAndFloatKeys(t *testing.T) {
	tu := New[uint32](Options{Workers: 2})
	tu.InsertBatch([]uint32{10, 5, 20})
	if !slices.Equal(tu.Keys(), []uint32{5, 10, 20}) {
		t.Fatalf("uint keys: %v", tu.Keys())
	}
	tf := New[float64](Options{Workers: 2})
	tf.InsertBatch([]float64{2.5, -1.25, 0})
	if !slices.Equal(tf.Keys(), []float64{-1.25, 0, 2.5}) {
		t.Fatalf("float keys: %v", tf.Keys())
	}

	// Inner nodes whose reps span ±MaxFloat64 or ±Inf, and +Inf and
	// NaN probes, once read a negative index-array bucket and panicked.
	keys := []float64{math.Inf(-1), -math.MaxFloat64, math.MaxFloat64, math.Inf(1)}
	for i := range 1000 {
		keys = append(keys, float64(i))
	}
	tf = NewFromKeys(Options{}, keys)
	for _, k := range keys {
		if !tf.Contains(k) {
			t.Fatalf("float keys: Contains(%v) missed", k)
		}
	}
	tf = NewFromKeys(Options{}, keys[4:])
	for _, k := range []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0.5} {
		if tf.Contains(k) {
			t.Fatalf("float keys: Contains(%v) hit", k)
		}
	}
}
