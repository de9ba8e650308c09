package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// assertBalanced checks the dynamic half of the arenapair contract:
// once no batched operation is in flight, every free-list Get has been
// matched by a Put. That includes the i32s scratch, which backs only
// the position buffers of parallel segments: sequential walkers
// (seqpath.go) own their per-depth level buffers.
func assertBalanced[K ~int64 | ~int32, V any](t *testing.T, label string, tr *Tree[K, V]) {
	t.Helper()
	type balancer interface{ Balance() (gets, puts int64) }
	for name, s := range map[string]balancer{
		"keys":  &tr.ar.keys,
		"vals":  &tr.ar.vals,
		"bools": &tr.ar.bools,
		"i32s":  &tr.ar.i32s,
		"ints":  &tr.ar.ints,
	} {
		gets, puts := s.Balance()
		if gets != puts {
			t.Errorf("%s: %s scratch unbalanced: %d gets, %d puts (leaked %d borrows)",
				label, name, gets, puts, gets-puts)
		}
	}
}

// TestScratchBorrowBalance is the dynamic counterpart of the static
// arenapair analyzer: it drives every batched path — mixed batched
// writes with rebuilds, range reads, tree-to-tree algebra, split and
// join — and asserts each participating tree's arena took back every
// buffer it lent out.
func TestScratchBorrowBalance(t *testing.T) {
	p := parallel.NewPool(4)
	rng := rand.New(rand.NewSource(7))

	// Batched operations require sorted duplicate-free key batches.
	batch := func(n int) ([]int64, []int64) {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = rng.Int63n(1 << 16)
		}
		slices.Sort(ks)
		ks = slices.Compact(ks)
		vs := make([]int64, len(ks))
		for i := range vs {
			vs[i] = rng.Int63()
		}
		return ks, vs
	}

	tr := New[int64, int64](Config{LeafCap: 8}, p)
	for round := 0; round < 6; round++ {
		ks, vs := batch(500 + round*200)
		tr.PutBatched(ks, vs)
		tr.InsertBatched(ks[:len(ks)/3])
		tr.RemoveBatched(ks[len(ks)/2:])
		tr.Range(ks[0]-100, ks[0]+100)
		tr.RangeKV(0, 1<<15)
	}
	assertBalanced(t, "batched writes", tr)

	mk := func(n int) *Tree[int64, int64] {
		tt := New[int64, int64](Config{LeafCap: 8}, p)
		ks, vs := batch(n)
		tt.PutBatched(ks, vs)
		return tt
	}
	a, b := mk(2000), mk(1500)
	u := a.Union(b, true)
	x := a.Intersect(b, false)
	d := a.DifferenceTree(b)
	sd := a.SymmetricDifference(b)
	l, r := u.Split(1 << 15)
	j := l.Join(r)
	for _, c := range []struct {
		label string
		tr    *Tree[int64, int64]
	}{
		{"algebra operand a", a}, {"algebra operand b", b},
		{"union result", u}, {"intersect result", x},
		{"difference result", d}, {"symdiff result", sd},
		{"split left", l}, {"split right", r}, {"join result", j},
	} {
		assertBalanced(t, c.label, c.tr)
	}
}
