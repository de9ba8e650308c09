package parallel

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sortedSet is the reference for SortedDedup: a sorted, compacted
// copy.
func sortedSet[K Ordered](arr []K) []K {
	want := slices.Clone(arr)
	slices.Sort(want)
	return slices.Compact(want)
}

func TestSortMatchesStdlib(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 100, sortCutoff, sortCutoff + 1, 100000} {
				arr := randInts(int64(n)*3+1, n, 1<<30)
				if got, want := SortedDedup(p, slices.Clone(arr)), sortedSet(arr); !slices.Equal(got, want) {
					t.Fatalf("n=%d: SortedDedup mismatch", n)
				}
			}
		})
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	p := NewPool(8)
	n := 50000
	asc := make([]int, n)
	desc := make([]int, n)
	for i := 0; i < n; i++ {
		asc[i] = i
		desc[i] = n - i
	}
	if got := SortedDedup(p, slices.Clone(asc)); !slices.Equal(got, asc) {
		t.Fatal("ascending input broken")
	}
	if got := SortedDedup(p, desc); !slices.Equal(got, sortedSet(desc)) || len(got) != n {
		t.Fatal("descending input not sorted")
	}
}

func TestSortManyDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	arr := make([]int, 80000)
	for i := range arr {
		arr[i] = r.Intn(10)
	}
	if got := SortedDedup(NewPool(8), slices.Clone(arr)); !slices.Equal(got, sortedSet(arr)) {
		t.Fatalf("duplicate-heavy sort mismatch: %v", got)
	}
}

// TestSortedDedup covers unsorted input and already sorted input with
// runs of duplicates, small and past sortCutoff.
func TestSortedDedup(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			arr := randInts(99, 30000, 1000)
			runs := slices.Sorted(slices.Values(arr))
			for _, in := range [][]int{arr, runs, {}, {1}, {1, 1, 1, 1}, {1, 1, 2, 2, 2, 3, 9, 9}} {
				want := sortedSet(in)
				if got := SortedDedup(p, slices.Clone(in)); !slices.Equal(got, want) {
					t.Fatalf("SortedDedup of %d keys: %d distinct, want %d", len(in), len(got), len(want))
				}
			}
		})
	}
}

func TestSortQuickProperty(t *testing.T) {
	p := NewPool(8)
	prop := func(arr []int32) bool {
		ints := make([]int, len(arr))
		for i, v := range arr {
			ints[i] = int(v)
		}
		return slices.Equal(SortedDedup(p, slices.Clone(ints)), sortedSet(ints))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortFloatKeys(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	arr := make([]float64, 30000)
	for i := range arr {
		arr[i] = r.NormFloat64()
	}
	if got := SortedDedup(NewPool(4), slices.Clone(arr)); !slices.Equal(got, sortedSet(arr)) {
		t.Fatal("float sort mismatch")
	}
}
