package pbist

import (
	"slices"
	"testing"
)

// The non-mutating slice-operand queries must ride the shared
// normalize fast path: a batch that is already sorted and
// duplicate-free is used as-is — never cloned, never re-sorted. These
// tests pin that down with alias checks and allocation counts, so a
// future edit that quietly reroutes sorted input through the
// clone+sort path fails loudly.

func TestNormalizeSortedInputIsAliased(t *testing.T) {
	tr := NewFromKeys(Options{Workers: 2}, []int64{1, 5, 9})
	sorted := []int64{2, 4, 8, 16}
	norm := tr.normalize(sorted)
	if &norm[0] != &sorted[0] || len(norm) != len(sorted) {
		t.Fatal("normalize copied already-sorted duplicate-free input")
	}
}

func TestSetQueriesSortedFastPathAllocations(t *testing.T) {
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(i) * 3
	}
	tr := NewFromKeys(Options{Workers: 1}, keys)

	sorted := make([]int64, 1024)
	for i := range sorted {
		sorted[i] = int64(i) * 5
	}
	// The same batch content, unsorted: reversing breaks the fast path.
	unsorted := make([]int64, len(sorted))
	for i, k := range sorted {
		unsorted[len(unsorted)-1-i] = k
	}

	intersectSorted := leastAllocs(func() { tr.Intersection(sorted) })
	intersectUnsorted := leastAllocs(func() { tr.Intersection(unsorted) })
	if intersectSorted >= intersectUnsorted {
		t.Fatalf("Intersection sorted input allocates %.0f, unsorted %.0f: fast path not taken",
			intersectSorted, intersectUnsorted)
	}
	diffSorted := leastAllocs(func() { tr.Difference(sorted) })
	diffUnsorted := leastAllocs(func() { tr.Difference(unsorted) })
	if diffSorted >= diffUnsorted {
		t.Fatalf("Difference sorted input allocates %.0f, unsorted %.0f: fast path not taken",
			diffSorted, diffUnsorted)
	}

	// Absolute ceilings, far below one-allocation-per-key regressions:
	// Intersection pays only the batched traversal and result arrays;
	// Difference additionally flattens the tree, which allocates a few
	// buffers per inner node (~a thousand over this 4096-key tree).
	if intersectSorted > 64 {
		t.Fatalf("Intersection sorted fast path allocates %.0f times", intersectSorted)
	}
	if diffSorted > 2000 {
		t.Fatalf("Difference sorted fast path allocates %.0f times", diffSorted)
	}
}

// leastAllocs is the fewest allocations any of 50 single runs of f
// makes. The unsorted path costs exactly one allocation more, the
// clone, and the race detector's sync.Pool drops cached scratch at
// random, which only ever adds allocations to a run: the least count
// is the path's own.
func leastAllocs(f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for range 49 {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

func TestSetQueriesAgreeAcrossInputOrder(t *testing.T) {
	keys := []int64{2, 3, 5, 7, 11, 13, 17, 19}
	tr := NewFromKeys(Options{Workers: 2}, keys)
	sorted := []int64{1, 2, 3, 4, 5, 6, 7}
	shuffled := []int64{7, 1, 5, 3, 2, 6, 4, 2, 7} // duplicates too
	if !slices.Equal(tr.Intersection(sorted), tr.Intersection(shuffled)) {
		t.Fatal("Intersection differs between sorted and shuffled input")
	}
	if !slices.Equal(tr.Difference(sorted), tr.Difference(shuffled)) {
		t.Fatal("Difference differs between sorted and shuffled input")
	}
	if want := []int64{2, 3, 5, 7}; !slices.Equal(tr.Intersection(sorted), want) {
		t.Fatalf("Intersection = %v, want %v", tr.Intersection(sorted), want)
	}
	if want := []int64{11, 13, 17, 19}; !slices.Equal(tr.Difference(sorted), want) {
		t.Fatalf("Difference = %v, want %v", tr.Difference(sorted), want)
	}
}
