package parallel

import (
	"slices"
	"testing"
	"testing/quick"
)

func scanRef(arr []int) ([]int, int) {
	out := make([]int, len(arr))
	sum := 0
	for i, v := range arr {
		out[i] = sum
		sum += v
	}
	return out, sum
}

func TestScanMatchesReference(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 3, 511, 512, 513, 4096, 100000} {
				arr := randInts(int64(n), n, 1000)
				wantOut, wantTot := scanRef(arr)
				gotTot := ScanInPlace(p, arr)
				if gotTot != wantTot {
					t.Fatalf("n=%d: total=%d want %d", n, gotTot, wantTot)
				}
				for i := range wantOut {
					if arr[i] != wantOut[i] {
						t.Fatalf("n=%d: arr[%d]=%d want %d", n, i, arr[i], wantOut[i])
					}
				}
			}
		})
	}
}

func TestScanInPlaceMatchesReference(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 512, 50000} {
				arr := randInts(int64(n)+99, n, 100)
				wantOut, wantTot := scanRef(arr)
				gotTot := ScanInPlace(p, arr)
				if gotTot != wantTot {
					t.Fatalf("n=%d: total=%d want %d", n, gotTot, wantTot)
				}
				for i := range wantOut {
					if arr[i] != wantOut[i] {
						t.Fatalf("n=%d: arr[%d]=%d want %d", n, i, arr[i], wantOut[i])
					}
				}
			}
		})
	}
}

func TestScanNegativeValues(t *testing.T) {
	arr := []int{-3, 5, -2, 0, 7}
	tot := ScanInPlace(NewPool(2), arr)
	want := []int{0, -3, 2, 0, 0}
	if tot != 7 {
		t.Fatalf("total=%d want 7", tot)
	}
	if !slices.Equal(arr, want) {
		t.Fatalf("arr=%v want %v", arr, want)
	}
}

func TestScanQuickProperty(t *testing.T) {
	p := NewPool(8)
	prop := func(arr []int16) bool {
		ints := make([]int, len(arr))
		for i, v := range arr {
			ints[i] = int(v)
		}
		wantOut, wantTot := scanRef(ints)
		return ScanInPlace(p, ints) == wantTot && slices.Equal(ints, wantOut)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
