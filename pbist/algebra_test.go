package pbist

import (
	"math/rand"
	"slices"
	"testing"
)

// checkViewInvariants is the public-API post-condition shared by every
// cross-view set-algebra test: keys sorted and duplicate-free, Len and
// Stats agreeing with the materialized contents, and a sane height.
// (The structural walk over node internals lives in internal/core's
// checkInvariants; this is its public-surface counterpart.)
func checkViewInvariants[K Key](t *testing.T, name string, keys []K, length int, stats Stats, height int) {
	t.Helper()
	if !isSortedUnique(nil, keys) {
		t.Fatalf("%s: keys not sorted duplicate-free", name)
	}
	if length != len(keys) {
		t.Fatalf("%s: Len = %d but %d keys materialized", name, length, len(keys))
	}
	if stats.LiveKeys != length {
		t.Fatalf("%s: Stats.LiveKeys = %d, want %d", name, stats.LiveKeys, length)
	}
	if stats.Height != height {
		t.Fatalf("%s: Stats.Height = %d but Height() = %d", name, stats.Height, height)
	}
	if length > 0 && height < 1 {
		t.Fatalf("%s: non-empty with height %d", name, height)
	}
	if length > 64 && height > 12 {
		t.Fatalf("%s: height %d over %d keys; result not ideally balanced", name, height, length)
	}
}

func checkTreeView[K Key](t *testing.T, name string, tr *Tree[K]) {
	t.Helper()
	checkViewInvariants(t, name, tr.Keys(), tr.Len(), tr.Stats(), tr.Height())
}

func checkMapView[K Key, V any](t *testing.T, name string, m *Map[K, V]) {
	t.Helper()
	checkViewInvariants(t, name, m.Keys(), m.Len(), m.Stats(), m.Height())
}

// tagVals derives per-side values so a surviving value identifies the
// operand it came from.
func tagVals(keys []int64, tag uint64) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(k)<<8 | tag
	}
	return out
}

// TestCrossViewSetAlgebra feeds identical inputs through the set view
// and the map view (under both merge policies) and demands agreement:
// the key sets of every operation must match across views and the map
// values must obey the policy.
func TestCrossViewSetAlgebra(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers}
		r := rand.New(rand.NewSource(int64(workers) * 1001))
		for round := 0; round < 6; round++ {
			a := dedup(randomKeys(r, 1+r.Intn(4000), 1<<16))
			b := dedup(randomKeys(r, 1+r.Intn(4000), 1<<16))
			ta, tb := NewFromKeys(opts, a), NewFromKeys(opts, b)
			ma := NewMapFromItems(opts, a, tagVals(a, 1))
			mb := NewMapFromItems(opts, b, tagVals(b, 2))

			type pair struct {
				op   string
				tree *Tree[int64]
				maps []*Map[int64, uint64]
			}
			cases := []pair{
				{"union", ta.Union(tb), []*Map[int64, uint64]{ma.Union(mb, LeftWins), ma.Union(mb, RightWins)}},
				{"intersect", ta.Intersect(tb), []*Map[int64, uint64]{ma.Intersect(mb, LeftWins), ma.Intersect(mb, RightWins)}},
				{"difftree", ta.DiffTree(tb), []*Map[int64, uint64]{ma.DiffTree(mb)}},
				{"symdiff", ta.SymDiff(tb), []*Map[int64, uint64]{ma.SymDiff(mb)}},
			}
			for _, c := range cases {
				keys := c.tree.Keys()
				checkTreeView(t, "tree/"+c.op, c.tree)
				for mi, m := range c.maps {
					if !slices.Equal(m.Keys(), keys) {
						t.Fatalf("w%d %s: map view %d key set diverges from tree view", workers, c.op, mi)
					}
					checkMapView(t, c.op, m)
				}
			}

			// Policy semantics on the map values.
			inA := map[int64]bool{}
			for _, k := range a {
				inA[k] = true
			}
			inB := map[int64]bool{}
			for _, k := range b {
				inB[k] = true
			}
			wantTag := func(k int64, policy MergePolicy) uint64 {
				if inA[k] && inB[k] {
					if policy == RightWins {
						return 2
					}
					return 1
				}
				if inA[k] {
					return 1
				}
				return 2
			}
			for _, policy := range []MergePolicy{LeftWins, RightWins} {
				uk, uv := ma.Union(mb, policy).Items()
				for i, k := range uk {
					if want := uint64(k)<<8 | wantTag(k, policy); uv[i] != want {
						t.Fatalf("w%d union %v: value for key %d = %#x, want %#x", workers, policy, k, uv[i], want)
					}
				}
				ik, iv := ma.Intersect(mb, policy).Items()
				for i, k := range ik {
					want := uint64(k)<<8 | 1
					if policy == RightWins {
						want = uint64(k)<<8 | 2
					}
					if iv[i] != want {
						t.Fatalf("w%d intersect %v: value for key %d = %#x, want %#x", workers, policy, k, iv[i], want)
					}
				}
			}

			// Operands must be untouched.
			if ta.Len() != len(a) || tb.Len() != len(b) || ma.Len() != len(a) || mb.Len() != len(b) {
				t.Fatalf("w%d: an operand was mutated", workers)
			}
		}
	}
}

// TestCrossViewSplitJoin checks Split/Join agreement between the two
// views, value retention through the round trip, and the half-open
// boundary (left < key <= ... right).
func TestCrossViewSplitJoin(t *testing.T) {
	opts := Options{Workers: 4}
	r := rand.New(rand.NewSource(99))
	keys := randomKeys(r, 5000, 1<<20)
	tr := NewFromKeys(opts, keys)
	m := NewMapFromItems(opts, keys, tagVals(keys, 7))
	sorted := dedup(keys)

	for _, cut := range []int64{sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1] + 1, -5} {
		tl, trr := tr.Split(cut)
		ml, mr := m.Split(cut)
		if !slices.Equal(tl.Keys(), ml.Keys()) || !slices.Equal(trr.Keys(), mr.Keys()) {
			t.Fatalf("Split(%d): views disagree", cut)
		}
		if n := len(tl.Keys()); n > 0 && tl.Keys()[n-1] >= cut {
			t.Fatalf("Split(%d): left holds key >= cut", cut)
		}
		if rk := trr.Keys(); len(rk) > 0 && rk[0] < cut {
			t.Fatalf("Split(%d): right holds key < cut", cut)
		}
		checkTreeView(t, "split/left", tl)
		checkTreeView(t, "split/right", trr)

		joined := ml.Join(mr)
		jk, jv := joined.Items()
		if !slices.Equal(jk, sorted) {
			t.Fatalf("Split(%d)+Join: lost keys", cut)
		}
		for i, k := range jk {
			if jv[i] != uint64(k)<<8|7 {
				t.Fatalf("Split(%d)+Join: value for key %d corrupted", cut, k)
			}
		}
		checkMapView(t, "join", joined)
	}
}

// TestSetAlgebraResultsAreLive verifies results are fully functional
// trees: they accept further batches and share the operand's worker
// pool configuration.
func TestSetAlgebraResultsAreLive(t *testing.T) {
	opts := Options{Workers: 4}
	a := NewFromKeys(opts, []int64{1, 2, 3, 4, 5})
	b := NewFromKeys(opts, []int64{4, 5, 6, 7})
	u := a.Union(b)
	if u.Workers() != a.Workers() {
		t.Fatalf("result pool workers = %d, want %d", u.Workers(), a.Workers())
	}
	if n := u.InsertBatch([]int64{100, 101}); n != 2 {
		t.Fatalf("InsertBatch on union result = %d", n)
	}
	if n := u.RemoveBatch([]int64{1}); n != 1 {
		t.Fatalf("RemoveBatch on union result = %d", n)
	}
	want := []int64{2, 3, 4, 5, 6, 7, 100, 101}
	if !slices.Equal(u.Keys(), want) {
		t.Fatalf("union result after batches = %v, want %v", u.Keys(), want)
	}
	// The operand is unaffected by batches on the result.
	if !slices.Equal(a.Keys(), []int64{1, 2, 3, 4, 5}) {
		t.Fatal("batches on the result leaked into the operand")
	}
}

// TestConcurrentSnapshotAlgebra exercises the snapshot Maps: a
// Snapshot must observe every operation completed before it and be
// fully detached from the live frontend, and the union of two
// frontends' snapshots must merge under the requested policy.
func TestConcurrentSnapshotAlgebra(t *testing.T) {
	ca := NewConcurrentFromItems[int64, uint64](ConcurrentOptions{}, []int64{1, 2, 3}, []uint64{10, 20, 30})
	defer ca.Close()
	cb := NewConcurrentFromItems[int64, uint64](ConcurrentOptions{}, []int64{3, 4}, []uint64{31, 41})
	defer cb.Close()

	snap := ca.Snapshot()
	if k := snap.Keys(); !slices.Equal(k, []int64{1, 2, 3}) {
		t.Fatalf("Snapshot keys = %v", k)
	}
	// Detachment: mutations on either side stay invisible to the other.
	ca.Put(99, 990)
	snap.Put(50, 500)
	if snap.Contains(99) {
		t.Fatal("snapshot observed a later write")
	}
	if ca.Contains(50) {
		t.Fatal("snapshot write leaked into the live frontend")
	}

	left := ca.Snapshot().Union(cb.Snapshot(), LeftWins)
	if k := left.Keys(); !slices.Equal(k, []int64{1, 2, 3, 4, 99}) {
		t.Fatalf("snapshot union keys = %v", k)
	}
	if v, _ := left.Get(3); v != 30 {
		t.Fatalf("LeftWins kept value %d for common key", v)
	}
	right := ca.Snapshot().Union(cb.Snapshot(), RightWins)
	if v, _ := right.Get(3); v != 31 {
		t.Fatalf("RightWins kept value %d for common key", v)
	}
	checkMapView(t, "unionsnapshot", right)

	// Snapshot-derived maps run whole-tree algebra like any other Map.
	both := left.Intersect(right, LeftWins)
	if !slices.Equal(both.Keys(), left.Keys()) {
		t.Fatal("snapshot-derived maps cannot run set algebra")
	}
}

func randomKeys(r *rand.Rand, n int, span int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(span)
	}
	return out
}
