package parallel

import (
	"slices"
	"testing"
	"testing/quick"
)

// filterRef is the sequential reference for FilterIndex with a
// predicate on values.
func filterRef[T any](arr []T, pred func(T) bool) []T {
	var out []T
	for _, v := range arr {
		if pred(v) {
			out = append(out, v)
		}
	}
	return out
}

// byValue adapts a value predicate to FilterIndex's index predicate.
func byValue[T any](arr []T, pred func(T) bool) func(int) bool {
	return func(i int) bool { return pred(arr[i]) }
}

func TestFilterMatchesReference(t *testing.T) {
	isEven := func(v int) bool { return v%2 == 0 }
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 100, 4096, 65537} {
				arr := randInts(int64(n)*7, n, 1<<20)
				want := filterRef(arr, isEven)
				got := FilterIndex(p, arr, byValue(arr, isEven))
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d: FilterIndex mismatch (got %d elems, want %d)", n, len(got), len(want))
				}
			}
		})
	}
}

func TestFilterPaperExample(t *testing.T) {
	// §2.4: Filter([1 3 8 6 7 2], is_even) = [8 6 2].
	arr := []int{1, 3, 8, 6, 7, 2}
	got := FilterIndex(NewPool(4), arr, byValue(arr, func(v int) bool { return v%2 == 0 }))
	if !slices.Equal(got, []int{8, 6, 2}) {
		t.Fatalf("got %v, want [8 6 2]", got)
	}
}

func TestFilterAllAndNone(t *testing.T) {
	arr := randInts(1, 10000, 100)
	if got := FilterIndex(NewPool(4), arr, func(int) bool { return true }); !slices.Equal(got, arr) {
		t.Fatal("accept-all filter does not reproduce input")
	}
	if got := FilterIndex(NewPool(4), arr, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("reject-all filter kept %d elements", len(got))
	}
}

// TestFilterIndicesInto checks the index form against a sequential
// scan, on sizes below and above the pool's fork threshold.
func TestFilterIndicesInto(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 100, 65537} {
				arr := randInts(int64(n)*5, n, 1<<20)
				pred := func(i int) bool { return arr[i]%3 == 0 }
				var want []int
				for i := range arr {
					if pred(i) {
						want = append(want, i)
					}
				}
				if got := FilterIndicesInto(p, n, nil, pred); !slices.Equal(got, want) {
					t.Fatalf("n=%d: FilterIndicesInto mismatch (got %d indices, want %d)", n, len(got), len(want))
				}
			}
		})
	}
	// A pool that cannot fork takes the one-block path past 512
	// elements too: given destinations of worst-case capacity, the
	// filters and the in-place scan allocate nothing.
	arr := randInts(7, 2000, 1<<20)
	pred := func(i int) bool { return arr[i]%3 == 0 }
	dstI, dstV, sums := make([]int, len(arr)), make([]int, len(arr)), make([]int, len(arr))
	if n := testing.AllocsPerRun(10, func() {
		FilterIndicesInto(nil, len(arr), dstI, pred)
		FilterIndexInto(nil, arr, dstV, pred)
		copy(sums, arr)
		ScanInPlace(nil, sums)
	}); n != 0 {
		t.Fatalf("nil pool at %d elements: filters and scan allocated %.0f times", len(arr), n)
	}
}

func TestFilterIndexSelectsByPosition(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			arr := make([]string, 10000)
			for i := range arr {
				arr[i] = string(rune('a' + i%26))
			}
			got := FilterIndex(p, arr, func(i int) bool { return i%3 == 0 })
			if len(got) != (len(arr)+2)/3 {
				t.Fatalf("kept %d elements, want %d", len(got), (len(arr)+2)/3)
			}
			for j, v := range got {
				if v != arr[3*j] {
					t.Fatalf("got[%d] = %q, want %q", j, v, arr[3*j])
				}
			}
		})
	}
}

func TestFilterQuickProperty(t *testing.T) {
	p := NewPool(8)
	prop := func(arr []uint8) bool {
		pred := func(v uint8) bool { return v&1 == 0 }
		return slices.Equal(FilterIndex(p, arr, byValue(arr, pred)), filterRef(arr, pred))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
