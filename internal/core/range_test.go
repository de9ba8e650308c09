package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

// rangeRef computes [lo,hi] extraction over a sorted reference slice.
func rangeRef(keys []int64, lo, hi int64) []int64 {
	var out []int64
	for _, k := range keys {
		if k >= lo && k <= hi {
			out = append(out, k)
		}
	}
	return out
}

func TestMinMax(t *testing.T) {
	tr := New[int64, struct{}](Config{}, nil)
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree reported ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree reported ok")
	}
	keys := sortedUniqueKeys(1, 10000, 1<<40)
	tr = NewFromSorted(Config{}, parallel.NewPool(4), keys)
	if mn, _, ok := tr.Min(); !ok || mn != keys[0] {
		t.Fatalf("Min = %d,%v want %d", mn, ok, keys[0])
	}
	if mx, _, ok := tr.Max(); !ok || mx != keys[len(keys)-1] {
		t.Fatalf("Max = %d,%v want %d", mx, ok, keys[len(keys)-1])
	}
}

func TestMinMaxSkipDeadKeys(t *testing.T) {
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	tr := NewFromSorted(Config{LeafCap: 4}, nil, keys)
	tr.RemoveBatched([]int64{1, 2, 3, 18, 19, 20})
	if mn, _, ok := tr.Min(); !ok || mn != 4 {
		t.Fatalf("Min after removals = %d,%v want 4", mn, ok)
	}
	if mx, _, ok := tr.Max(); !ok || mx != 17 {
		t.Fatalf("Max after removals = %d,%v want 17", mx, ok)
	}
	tr.RemoveBatched(tr.Keys())
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on fully-emptied tree reported ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on fully-emptied tree reported ok")
	}
}

func TestRangeMatchesReference(t *testing.T) {
	keys := sortedUniqueKeys(2, 20000, 1<<20)
	tr := NewFromSorted(Config{}, parallel.NewPool(4), keys)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a, b := r.Int63n(1<<20), r.Int63n(1<<20)
		lo, hi := min(a, b), max(a, b)
		got := tr.Range(lo, hi)
		want := rangeRef(keys, lo, hi)
		if !slices.Equal(got, want) {
			t.Fatalf("Range(%d,%d): got %d keys, want %d", lo, hi, len(got), len(want))
		}
		if c := tr.CountRange(lo, hi); c != len(want) {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, c, len(want))
		}
	}
	// Inverted and empty ranges.
	if got := tr.Range(100, 50); got != nil {
		t.Fatal("inverted range should be empty")
	}
	if c := tr.CountRange(100, 50); c != 0 {
		t.Fatal("inverted CountRange should be 0")
	}
	// Full range equals Keys.
	if !slices.Equal(tr.Range(-1<<40, 1<<40), keys) {
		t.Fatal("full range mismatch")
	}
}

func TestRangeRespectsLogicalDeletion(t *testing.T) {
	keys := sortedUniqueKeys(4, 5000, 1<<16)
	tr := NewFromSorted(Config{}, parallel.NewPool(4), keys)
	dead := keys[1000:2000]
	tr.RemoveBatched(dead)
	live := tr.Keys()
	got := tr.Range(keys[0], keys[len(keys)-1])
	if !slices.Equal(got, live) {
		t.Fatal("Range leaks logically removed keys")
	}
	if c := tr.CountRange(keys[0], keys[len(keys)-1]); c != len(live) {
		t.Fatalf("CountRange counts dead keys: %d vs %d", c, len(live))
	}
}

func TestRangeBoundsInclusive(t *testing.T) {
	tr := NewFromSorted(Config{}, nil, []int64{10, 20, 30, 40, 50})
	if got := tr.Range(20, 40); !slices.Equal(got, []int64{20, 30, 40}) {
		t.Fatalf("Range(20,40) = %v", got)
	}
	if got := tr.Range(20, 20); !slices.Equal(got, []int64{20}) {
		t.Fatalf("Range(20,20) = %v", got)
	}
	if got := tr.Range(21, 29); len(got) != 0 {
		t.Fatalf("Range(21,29) = %v, want empty", got)
	}
}

func TestAppendRangeReusesBuffer(t *testing.T) {
	tr := NewFromSorted(Config{}, nil, []int64{1, 2, 3})
	buf := make([]int64, 0, 16)
	out, _ := tr.AppendRangeKV(buf, nil, 1, 3)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendRangeKV reallocated despite sufficient capacity")
	}
}

func TestSelectAndRankOf(t *testing.T) {
	keys := sortedUniqueKeys(5, 8000, 1<<30)
	tr := NewFromSorted(Config{}, parallel.NewPool(4), keys)
	for _, idx := range []int{0, 1, 100, 4000, len(keys) - 1} {
		if got, _, ok := tr.Select(idx); !ok || got != keys[idx] {
			t.Fatalf("Select(%d) = %d,%v want %d", idx, got, ok, keys[idx])
		}
	}
	if _, _, ok := tr.Select(-1); ok {
		t.Fatal("Select(-1) should fail")
	}
	if _, _, ok := tr.Select(len(keys)); ok {
		t.Fatal("Select(len) should fail")
	}
	for _, i := range []int{0, 7, 777, 7999} {
		if got := tr.RankOf(keys[i]); got != i {
			t.Fatalf("RankOf(%d) = %d, want %d", keys[i], got, i)
		}
	}
	// Rank of an absent key equals the rank of its insertion point.
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		x := r.Int63n(1 << 30)
		want, _ := slices.BinarySearch(keys, x)
		if got := tr.RankOf(x); got != want {
			t.Fatalf("RankOf(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestSelectRankAfterChurn(t *testing.T) {
	tr := New[int64, struct{}](Config{LeafCap: 8, RebuildFactor: 2}, parallel.NewPool(4))
	ref := refSet{}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		ins := randomBatch(r, 300, 4000)
		rem := randomBatch(r, 300, 4000)
		tr.InsertBatched(ins)
		ref.insertBatch(ins)
		tr.RemoveBatched(rem)
		ref.removeBatch(rem)
	}
	sorted := ref.sorted()
	for _, idx := range []int{0, len(sorted) / 3, len(sorted) - 1} {
		if idx < 0 || len(sorted) == 0 {
			continue
		}
		if got, _, ok := tr.Select(idx); !ok || got != sorted[idx] {
			t.Fatalf("Select(%d) after churn = %d,%v want %d", idx, got, ok, sorted[idx])
		}
		if got := tr.RankOf(sorted[idx]); got != idx {
			t.Fatalf("RankOf(%d) after churn = %d, want %d", sorted[idx], got, idx)
		}
	}
}

func TestSelectRankRoundTripQuick(t *testing.T) {
	keys := sortedUniqueKeys(8, 3000, 1<<25)
	tr := NewFromSorted(Config{}, nil, keys)
	prop := func(rawIdx uint16) bool {
		idx := int(rawIdx) % len(keys)
		k, _, ok := tr.Select(idx)
		return ok && tr.RankOf(k) == idx
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeQuickAgainstReference(t *testing.T) {
	keys := sortedUniqueKeys(9, 2000, 1<<16)
	tr := NewFromSorted(Config{}, parallel.NewPool(2), keys)
	prop := func(a, b uint16) bool {
		lo, hi := int64(min(a, b)), int64(max(a, b))
		return slices.Equal(tr.Range(lo, hi), rangeRef(keys, lo, hi)) &&
			tr.CountRange(lo, hi) == len(rangeRef(keys, lo, hi))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
