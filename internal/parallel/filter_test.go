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

func TestDedup(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			cases := [][]int{
				{},
				{1},
				{1, 1, 1, 1},
				{1, 2, 3},
				{1, 1, 2, 2, 2, 3, 9, 9},
			}
			for _, c := range cases {
				want := slices.Compact(slices.Clone(c))
				got := Dedup(p, c)
				if !slices.Equal(got, want) {
					t.Fatalf("Dedup(%v) = %v, want %v", c, got, want)
				}
			}
		})
	}
}

func TestDedupLargeRandom(t *testing.T) {
	arr := randInts(42, 200000, 5000)
	slices.Sort(arr)
	want := slices.Compact(slices.Clone(arr))
	got := Dedup(NewPool(8), arr)
	if !slices.Equal(got, want) {
		t.Fatalf("large Dedup mismatch: got %d, want %d elements", len(got), len(want))
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
