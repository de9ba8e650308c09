package treap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func pools() map[string]*parallel.Pool {
	return map[string]*parallel.Pool{
		"seq": nil,
		"w4":  parallel.NewPool(4),
	}
}

// keysOnly runs one of parallel's set-algebra kernels on key-only
// sets, with V = struct{}.
func keysOnly(p *parallel.Pool, kernel func(*parallel.Pool, []int64, []struct{}, []int64, []struct{}, []int64, []struct{}) ([]int64, []struct{}), a, b []int64) []int64 {
	out, _ := kernel(p, a, make([]struct{}, len(a)), b, make([]struct{}, len(b)), nil, nil)
	return out
}

func sortedUnique(seed int64, n int, span int64) []int64 {
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

func TestEmpty(t *testing.T) {
	s := New[int64](nil)
	if s.Len() != 0 || s.Contains(1) || s.Remove(1) {
		t.Fatal("empty set misbehaves")
	}
	if n := s.UnionWith(nil); n != 0 {
		t.Fatal("empty union added keys")
	}
	if len(s.Keys()) != 0 {
		t.Fatal("empty set has keys")
	}
}

func TestScalarOps(t *testing.T) {
	s := New[int64](nil)
	if !s.Insert(5) || s.Insert(5) {
		t.Fatal("Insert semantics wrong")
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if !s.Remove(5) || s.Remove(5) {
		t.Fatal("Remove semantics wrong")
	}
}

func TestBuildFromSorted(t *testing.T) {
	for name, p := range pools() {
		t.Run(name, func(t *testing.T) {
			keys := sortedUnique(1, 20000, 1<<40)
			s := NewFromSorted(p, keys)
			if s.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
			}
			if !slices.Equal(s.Keys(), keys) {
				t.Fatal("Keys() round-trip failed")
			}
			checkTreap(t, s)
		})
	}
}

func TestUnionWith(t *testing.T) {
	for name, p := range pools() {
		t.Run(name, func(t *testing.T) {
			a := sortedUnique(2, 20000, 1<<24)
			b := sortedUnique(3, 20000, 1<<24)
			s := NewFromSorted(p, a)
			added := s.UnionWith(b)
			want := keysOnly(p, parallel.UnionKVInto[int64, struct{}], a, b)
			if added != len(want)-len(a) {
				t.Fatalf("UnionWith reported %d new keys, want %d", added, len(want)-len(a))
			}
			if !slices.Equal(s.Keys(), want) {
				t.Fatal("union contents wrong")
			}
			checkTreap(t, s)
		})
	}
}

func TestDifferenceWith(t *testing.T) {
	for name, p := range pools() {
		t.Run(name, func(t *testing.T) {
			a := sortedUnique(4, 20000, 1<<24)
			b := sortedUnique(5, 20000, 1<<24)
			s := NewFromSorted(p, a)
			removed := s.DifferenceWith(b)
			want := keysOnly(p, parallel.DifferenceKVInto[int64, struct{}], a, b)
			if removed != len(a)-len(want) {
				t.Fatalf("DifferenceWith removed %d, want %d", removed, len(a)-len(want))
			}
			if !slices.Equal(s.Keys(), want) {
				t.Fatal("difference contents wrong")
			}
			checkTreap(t, s)
		})
	}
}

func TestIntersectWith(t *testing.T) {
	for name, p := range pools() {
		t.Run(name, func(t *testing.T) {
			a := sortedUnique(6, 20000, 1<<24)
			b := sortedUnique(7, 20000, 1<<24)
			s := NewFromSorted(p, a)
			size := s.IntersectWith(b)
			want := keysOnly(p, parallel.IntersectKVInto[int64, struct{}], a, b)
			if size != len(want) {
				t.Fatalf("IntersectWith size %d, want %d", size, len(want))
			}
			if !slices.Equal(s.Keys(), want) {
				t.Fatal("intersection contents wrong")
			}
			checkTreap(t, s)
		})
	}
}

func TestContainsBatched(t *testing.T) {
	p := parallel.NewPool(4)
	a := sortedUnique(8, 10000, 1<<24)
	probes := sortedUnique(9, 10000, 1<<24)
	s := NewFromSorted(p, a)
	got := s.ContainsBatched(probes)
	for i, k := range probes {
		if _, want := slices.BinarySearch(a, k); got[i] != want {
			t.Fatalf("ContainsBatched(%d) = %v, want %v", k, got[i], want)
		}
	}
}

func TestPersistentSharingSafety(t *testing.T) {
	// Operations must not mutate the original: snapshot the root and
	// verify the pre-union contents remain reachable and intact.
	p := parallel.NewPool(4)
	a := sortedUnique(10, 5000, 1<<20)
	s := NewFromSorted(p, a)
	old := *s // shallow copy shares the old root
	b := sortedUnique(11, 5000, 1<<20)
	s.UnionWith(b)
	if !slices.Equal(old.Keys(), a) {
		t.Fatal("union mutated the previous version")
	}
}

func TestExpectedLogHeight(t *testing.T) {
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(i)
	}
	s := NewFromSorted(parallel.NewPool(4), keys)
	// Expected height ~ 2.99·log2(n) ≈ 48; allow slack.
	if h := s.Height(); h > 80 {
		t.Fatalf("treap height %d far exceeds expected O(log n)", h)
	}
	checkTreap(t, s)
}

func TestResultsIndependentOfWorkers(t *testing.T) {
	a := sortedUnique(12, 20000, 1<<24)
	b := sortedUnique(13, 20000, 1<<24)
	seq := NewFromSorted(nil, a)
	seq.UnionWith(b)
	par := NewFromSorted(parallel.NewPool(8), a)
	par.UnionWith(b)
	if !slices.Equal(seq.Keys(), par.Keys()) {
		t.Fatal("worker count changed union result")
	}
	if seq.Height() != par.Height() {
		t.Fatal("worker count changed treap shape (priorities not deterministic?)")
	}
}

func TestQuickSetAlgebra(t *testing.T) {
	p := parallel.NewPool(2)
	prop := func(x, y []uint16) bool {
		a := make([]int64, 0, len(x))
		for _, v := range x {
			a = append(a, int64(v))
		}
		slices.Sort(a)
		a = slices.Compact(a)
		b := make([]int64, 0, len(y))
		for _, v := range y {
			b = append(b, int64(v))
		}
		slices.Sort(b)
		b = slices.Compact(b)

		u := NewFromSorted(p, a)
		u.UnionWith(b)
		d := NewFromSorted(p, a)
		d.DifferenceWith(b)
		i := NewFromSorted(p, a)
		i.IntersectWith(b)

		return slices.Equal(u.Keys(), keysOnly(p, parallel.UnionKVInto[int64, struct{}], a, b)) &&
			slices.Equal(d.Keys(), keysOnly(p, parallel.DifferenceKVInto[int64, struct{}], a, b)) &&
			slices.Equal(i.Keys(), keysOnly(p, parallel.IntersectKVInto[int64, struct{}], a, b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkTreap asserts BST order on keys, heap order on priorities, and
// size bookkeeping.
func checkTreap(t *testing.T, s *Set[int64]) {
	t.Helper()
	var rec func(v *node[int64], lo, hi *int64) int
	rec = func(v *node[int64], lo, hi *int64) int {
		if v == nil {
			return 0
		}
		if lo != nil && v.key <= *lo {
			t.Fatalf("key %d violates lower bound %d", v.key, *lo)
		}
		if hi != nil && v.key >= *hi {
			t.Fatalf("key %d violates upper bound %d", v.key, *hi)
		}
		if v.left != nil && v.left.prio > v.prio {
			t.Fatal("heap property violated on the left")
		}
		if v.right != nil && v.right.prio > v.prio {
			t.Fatal("heap property violated on the right")
		}
		n := 1 + rec(v.left, lo, &v.key) + rec(v.right, &v.key, hi)
		if v.size != n {
			t.Fatalf("size %d != subtree count %d", v.size, n)
		}
		return n
	}
	rec(s.root, nil, nil)
}
