package parallel

import (
	"math/rand"
	"slices"
	"testing"
)

// kvRef builds the reference answer with a plain sequential merge of
// (key, value) pairs.
func kvMergeRef(ak []int64, av []string, bk []int64, bv []string) ([]int64, []string) {
	outK := make([]int64, 0, len(ak)+len(bk))
	outV := make([]string, 0, len(ak)+len(bk))
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		if bk[j] < ak[i] {
			outK = append(outK, bk[j])
			outV = append(outV, bv[j])
			j++
		} else {
			outK = append(outK, ak[i])
			outV = append(outV, av[i])
			i++
		}
	}
	for ; i < len(ak); i++ {
		outK = append(outK, ak[i])
		outV = append(outV, av[i])
	}
	for ; j < len(bk); j++ {
		outK = append(outK, bk[j])
		outV = append(outV, bv[j])
	}
	return outK, outV
}

// disjointSortedKV returns two disjoint sorted key sets with values
// derived from the keys, so value alignment is checkable after any
// reordering.
func disjointSortedKV(r *rand.Rand, n int) (ak []int64, av []string, bk []int64, bv []string) {
	seen := map[int64]bool{}
	for len(seen) < 2*n {
		seen[r.Int63n(1<<40)] = true
	}
	all := make([]int64, 0, 2*n)
	for k := range seen {
		all = append(all, k)
	}
	for i, k := range all {
		if i%2 == 0 {
			ak = append(ak, k)
		} else {
			bk = append(bk, k)
		}
	}
	slices.Sort(ak)
	slices.Sort(bk)
	for _, k := range ak {
		av = append(av, tag(k))
	}
	for _, k := range bk {
		bv = append(bv, tag(k))
	}
	return ak, av, bk, bv
}

func tag(k int64) string { return string(rune('a'+k%26)) + "-" + string(rune('0'+k%10)) }

func TestMergeKVMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, workers := range []int{1, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 100, 20000} {
			ak, av, bk, bv := disjointSortedKV(r, n)
			wantK, wantV := kvMergeRef(ak, av, bk, bv)
			gotK, gotV := MergeKVInto(p, ak, av, bk, bv, nil, nil)
			if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
				t.Fatalf("workers=%d n=%d: MergeKVInto mismatch", workers, n)
			}
			// Values must still be derivable from their key: alignment
			// survived the parallel split.
			for i, k := range gotK {
				if gotV[i] != tag(k) {
					t.Fatalf("workers=%d n=%d: value misaligned at %d", workers, n, i)
				}
			}
		}
	}
}

func TestDifferenceKVMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, workers := range []int{1, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 50, 30000} {
			ak, av, bk, _ := disjointSortedKV(r, n)
			// Subtract half of a's own keys plus all of b's (absent).
			sub := slices.Clone(bk)
			for i := 0; i < len(ak); i += 2 {
				sub = append(sub, ak[i])
			}
			slices.Sort(sub)
			gotK, gotV := DifferenceKVInto(p, ak, av, sub, nil, nil)
			wantK := Difference(p, ak, sub)
			if !slices.Equal(gotK, wantK) {
				t.Fatalf("workers=%d n=%d: key sets differ from Difference", workers, n)
			}
			for i, k := range gotK {
				if gotV[i] != tag(k) {
					t.Fatalf("workers=%d n=%d: value misaligned at %d", workers, n, i)
				}
			}
		}
	}
}

func TestDifferenceKVEmptySubtrahend(t *testing.T) {
	p := NewPool(4)
	ak := []int64{1, 5, 9}
	av := []string{"x", "y", "z"}
	gotK, gotV := DifferenceKVInto(p, ak, av, nil, nil, nil)
	if !slices.Equal(gotK, ak) || !slices.Equal(gotV, av) {
		t.Fatalf("empty subtrahend must copy input: %v %v", gotK, gotV)
	}
	gotK[0] = 42 // the copy must not alias the input
	if ak[0] != 1 {
		t.Fatal("DifferenceKVInto aliased its input")
	}
	if k, v := DifferenceKVInto[int64, string](p, nil, nil, ak, nil, nil); k != nil || v != nil {
		t.Fatal("empty minuend must return nil")
	}
}
