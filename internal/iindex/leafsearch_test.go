package iindex

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkLeafSearch checks every search kernel a tree runs (SearchLeaf,
// Walk from every estimate, and Find over the leaf's Build index)
// against slices.BinarySearch, an oracle that shares no code with
// Walk's binary fallback. The leaf is rep, the elements of the sorted
// duplicate-free keys[a:b] that keep selects; keys[a-1] and keys[b],
// where they exist, are the parent's separators. Every element of keys
// is probed, so probes hit rep, miss inside it and fall on or beyond
// both separators.
func checkLeafSearch[K Numeric](t *testing.T, keys []K, a, b int, keep func(i int) bool) {
	t.Helper()
	var rep []K
	for i := a; i < b; i++ {
		if keep(i) {
			rep = append(rep, keys[i])
		}
	}
	n := len(rep)
	lo, hi := math.Inf(-1), math.Inf(1)
	if a > 0 {
		lo = float64(keys[a-1])
	}
	if b < len(keys) {
		hi = float64(keys[b])
	}
	bounds := [][2]float64{{lo, hi}, {math.Inf(-1), math.Inf(1)}}
	if n > 0 {
		first, last := float64(rep[0]), float64(rep[n-1])
		bounds = append(bounds, [2]float64{first, last}, [2]float64{first, hi}, [2]float64{lo, last})
	}
	ix := Build(rep, 0)
	for _, x := range keys {
		want, wantFound := slices.BinarySearch(rep, x)
		check := func(kernel string, pos int, found bool) {
			t.Helper()
			if pos != want || found != wantFound {
				t.Fatalf("%s(x=%v) over %d keys %v … %v = (%d, %v), BinarySearch (%d, %v)",
					kernel, x, n, rep[:min(n, 4)], rep[max(0, n-4):], pos, found, want, wantFound)
			}
		}
		for _, bd := range bounds {
			pos, found := SearchLeaf(rep, bd[0], bd[1], x)
			check("SearchLeaf", pos, found)
		}
		for h := 0; h <= n; h++ {
			pos, found := Walk(rep, h, x)
			check("Walk", pos, found)
		}
		pos, found := Find(rep, &ix, x)
		check("Find", pos, found)
	}
}

// checkLeafWindows runs checkLeafSearch over windows of keys that cover
// an empty and a one-key leaf, leaves of 17 to 256 keys, and leaves
// that are a first or last child (one separator missing), each with
// every key kept (probes hit or leave the leaf) and every other key
// kept (probes also miss inside it).
func checkLeafWindows[K Numeric](t *testing.T, keys []K) {
	t.Helper()
	n := len(keys)
	windows := [][2]int{{0, 0}, {n / 2, n / 2}, {3, 4}, {0, 1}, {n - 1, n}, {0, n}, {0, 65}, {n - 17, n}, {100, 117}, {40, 296}, {n / 3, n/3 + 64}}
	for _, w := range windows {
		a, b := max(0, min(w[0], n)), max(0, min(w[1], n))
		checkLeafSearch(t, keys, a, b, func(int) bool { return true })
		checkLeafSearch(t, keys, a, b, func(i int) bool { return i%2 == 0 })
	}
}

// sortedUnique sorts keys and drops duplicates in place.
func sortedUnique[K Numeric](keys []K) []K {
	slices.Sort(keys)
	return slices.Compact(keys)
}

func TestSearchLeafMatchesLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	t.Run("int64/uniform", func(t *testing.T) {
		checkLeafWindows(t, sortedUniqueInt64(22, 600, 1<<40))
	})
	t.Run("int64/clustered", func(t *testing.T) {
		var keys []int64
		for c := int64(0); c < 6; c++ {
			base := r.Int63n(1 << 50)
			for i := 0; i < 100; i++ {
				keys = append(keys, base+r.Int63n(300))
			}
		}
		checkLeafWindows(t, sortedUnique(keys))
	})
	t.Run("int64/collapsed-floats", func(t *testing.T) {
		// Above 2^53 runs of consecutive integers share one float
		// image, so interpolation cannot tell them apart.
		var keys []int64
		for i := int64(0); i < 300; i++ {
			keys = append(keys, 1<<60+i, math.MaxInt64-3*i, math.MinInt64+2*i)
		}
		checkLeafWindows(t, sortedUnique(keys))
	})
	t.Run("uint64/above-2^63", func(t *testing.T) {
		var keys []uint64
		for i := 0; i < 300; i++ {
			keys = append(keys, 1<<63+r.Uint64()>>24, math.MaxUint64-uint64(i))
		}
		checkLeafWindows(t, sortedUnique(keys))
	})
	t.Run("int8/all", func(t *testing.T) {
		var keys []int8
		for x := math.MinInt8; x <= math.MaxInt8; x++ {
			keys = append(keys, int8(x))
		}
		checkLeafWindows(t, keys)
	})
	t.Run("float64", func(t *testing.T) {
		var keys []float64
		for i := 0; i < 600; i++ {
			keys = append(keys, r.NormFloat64()*1000)
		}
		keys = append(keys, math.Inf(-1), math.Inf(1), math.MaxFloat64, -math.MaxFloat64, 0, math.SmallestNonzeroFloat64)
		checkLeafWindows(t, sortedUnique(keys))
	})
}

// FuzzSearchLeaf decodes a sorted key set of one of four key types from
// raw bytes, cuts a leaf out of it at fuzzed bounds and checks every
// search kernel against slices.BinarySearch (checkLeafSearch). Run `go test
// -fuzz=FuzzSearchLeaf ./internal/iindex` for open-ended exploration.
func FuzzSearchLeaf(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(2), uint16(9), uint8(0))
	f.Add([]byte{255, 254, 253, 3, 3, 3, 0, 0, 9, 9, 9, 9, 100, 100, 42, 7, 1}, uint16(0), uint16(40), uint8(0x41))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1, 1, 1, 1, 0x80}, uint16(1), uint16(1), uint8(0x82))
	f.Add([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0xc0, 0, 0, 0, 0, 0, 0, 0}, uint16(0), uint16(5), uint8(3))
	f.Add([]byte{}, uint16(0), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, a, w uint16, mode uint8) {
		// mode&3 picks the key type, mode&0x40 a dense 2-byte key
		// layout near the top of the type, mode&0x80 a leaf of every
		// other key.
		dense := mode&0x40 != 0
		keep := func(i int) bool { return mode&0x80 == 0 || i%2 == 0 }
		window := func(n int) (int, int) {
			lo := int(a) % (n + 1)
			return lo, lo + int(w)%(n-lo+1)
		}
		switch mode & 3 {
		case 0:
			var keys []int64
			for c := range chunks(data, dense) {
				if dense {
					keys = append(keys, 1<<60+int64(c))
				} else {
					keys = append(keys, int64(c))
				}
			}
			keys = sortedUnique(keys)
			lo, hi := window(len(keys))
			checkLeafSearch(t, keys, lo, hi, keep)
		case 1:
			var keys []uint64
			for c := range chunks(data, dense) {
				if dense {
					c += math.MaxUint64 - math.MaxUint16
				}
				keys = append(keys, c)
			}
			keys = sortedUnique(keys)
			lo, hi := window(len(keys))
			checkLeafSearch(t, keys, lo, hi, keep)
		case 2:
			keys := make([]int8, len(data))
			for i, c := range data {
				keys[i] = int8(c)
			}
			keys = sortedUnique(keys)
			lo, hi := window(len(keys))
			checkLeafSearch(t, keys, lo, hi, keep)
		default:
			var keys []float64
			for c := range chunks(data, false) {
				if x := math.Float64frombits(c); !math.IsNaN(x) {
					keys = append(keys, x)
				}
			}
			keys = sortedUnique(keys)
			lo, hi := window(len(keys))
			checkLeafSearch(t, keys, lo, hi, keep)
		}
	})
}

// chunks yields data as little-endian words of 2 bytes (dense) or 8
// bytes, dropping a short tail.
func chunks(data []byte, dense bool) func(yield func(uint64) bool) {
	size := 8
	if dense {
		size = 2
	}
	return func(yield func(uint64) bool) {
		for ; len(data) >= size; data = data[size:] {
			var c uint64
			if dense {
				c = uint64(binary.LittleEndian.Uint16(data))
			} else {
				c = binary.LittleEndian.Uint64(data)
			}
			if !yield(c) {
				return
			}
		}
	}
}
