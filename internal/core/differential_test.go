package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

// refSet is the model the tree is differentially tested against.
type refSet map[int64]bool

func (r refSet) insertBatch(keys []int64) int {
	n := 0
	for _, k := range keys {
		if !r[k] {
			r[k] = true
			n++
		}
	}
	return n
}

func (r refSet) removeBatch(keys []int64) int {
	n := 0
	for _, k := range keys {
		if r[k] {
			delete(r, k)
			n++
		}
	}
	return n
}

func (r refSet) containsBatch(keys []int64) []bool {
	out := make([]bool, len(keys))
	for i, k := range keys {
		out[i] = r[k]
	}
	return out
}

func (r refSet) sorted() []int64 {
	out := make([]int64, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// randomBatch draws a sorted duplicate-free batch from [0, span).
func randomBatch(r *rand.Rand, maxLen int, span int64) []int64 {
	n := r.Intn(maxLen + 1)
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

func TestDifferentialBatchSequences(t *testing.T) {
	configs := map[string]Config{
		"defaults":       {},
		"tinyLeaves":     {LeafCap: 4, RebuildFactor: 1},
		"lazyRebuild":    {LeafCap: 32, RebuildFactor: 8},
		"rankTraverse":   {Traverse: TraverseRank},
		"coarseIndex":    {IndexSizeFactor: 0.25},
		"aggressiveRank": {Traverse: TraverseRank, LeafCap: 4, RebuildFactor: 1},
		// Arena matrix: the full harness must pass bit-identically with
		// buffer recycling off, and with it on under rebuild churn.
		"noReuse":     {DisableBufferReuse: true},
		"noReuseTiny": {DisableBufferReuse: true, LeafCap: 4, RebuildFactor: 1},
	}
	for cname, cfg := range configs {
		for pname, p := range corePools() {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				tr := New[int64, struct{}](cfg, p)
				ref := refSet{}
				r := rand.New(rand.NewSource(int64(len(cname)*31 + len(pname))))
				const span = 5000
				for round := 0; round < 60; round++ {
					batch := randomBatch(r, 800, span)
					switch round % 3 {
					case 0:
						if got, want := tr.InsertBatched(batch), ref.insertBatch(batch); got != want {
							t.Fatalf("round %d: InsertBatched = %d, want %d", round, got, want)
						}
					case 1:
						if got, want := tr.RemoveBatched(batch), ref.removeBatch(batch); got != want {
							t.Fatalf("round %d: RemoveBatched = %d, want %d", round, got, want)
						}
					default:
						if got, want := tr.ContainsBatched(batch), ref.containsBatch(batch); !slices.Equal(got, want) {
							t.Fatalf("round %d: ContainsBatched mismatch", round)
						}
					}
					if tr.Len() != len(ref) {
						t.Fatalf("round %d: Len = %d, want %d", round, tr.Len(), len(ref))
					}
				}
				if !slices.Equal(tr.Keys(), ref.sorted()) {
					t.Fatal("final key sets differ")
				}
				checkInvariants(t, tr)
			})
		}
	}
}

func TestLargeChurnKeepsBalance(t *testing.T) {
	// Sustained insert/remove churn across many batches: the rebuild
	// rule must keep height doubly logarithmic and reclaim dead keys.
	p := parallel.NewPool(8)
	tr := New[int64, struct{}](Config{}, p)
	ref := refSet{}
	r := rand.New(rand.NewSource(77))
	const span = 1 << 22
	for round := 0; round < 40; round++ {
		ins := randomBatch(r, 20000, span)
		rem := randomBatch(r, 20000, span)
		tr.InsertBatched(ins)
		ref.insertBatch(ins)
		tr.RemoveBatched(rem)
		ref.removeBatch(rem)
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	if !slices.Equal(tr.Keys(), ref.sorted()) {
		t.Fatal("contents diverged under churn")
	}
	s := tr.Stats()
	if s.Height > 10 {
		t.Fatalf("height = %d after churn; rebuilds not maintaining balance", s.Height)
	}
	if s.DeadKeys > 4*s.LiveKeys+1000 {
		t.Fatalf("dead keys %d vs live %d: space not being reclaimed", s.DeadKeys, s.LiveKeys)
	}
	checkInvariants(t, tr)
}

func TestMonotoneBatchesRebalance(t *testing.T) {
	// Strictly ascending batches are the adversarial pattern of
	// Fig. 7: without rebuilds everything piles into the rightmost
	// leaf.
	tr := New[int64, struct{}](Config{}, parallel.NewPool(4))
	next := int64(0)
	for round := 0; round < 50; round++ {
		batch := make([]int64, 2000)
		for i := range batch {
			batch[i] = next
			next++
		}
		if n := tr.InsertBatched(batch); n != len(batch) {
			t.Fatalf("round %d: inserted %d", round, n)
		}
	}
	if tr.Len() != int(next) {
		t.Fatalf("Len = %d, want %d", tr.Len(), next)
	}
	if h := tr.Height(); h > 10 {
		t.Fatalf("height = %d after monotone batch inserts", h)
	}
	checkInvariants(t, tr)
}

func TestSingletonBatches(t *testing.T) {
	// Degenerate batch size m=1 must behave exactly like scalar ops.
	tr := New[int64, struct{}](Config{LeafCap: 4, RebuildFactor: 1}, parallel.NewPool(2))
	ref := refSet{}
	r := rand.New(rand.NewSource(31))
	for op := 0; op < 5000; op++ {
		k := r.Int63n(300)
		switch op % 3 {
		case 0:
			if got, want := tr.InsertBatched([]int64{k}), ref.insertBatch([]int64{k}); got != want {
				t.Fatalf("op %d: insert mismatch", op)
			}
		case 1:
			if got, want := tr.RemoveBatched([]int64{k}), ref.removeBatch([]int64{k}); got != want {
				t.Fatalf("op %d: remove mismatch", op)
			}
		default:
			if got, want := tr.Contains(k), ref[k]; got != want {
				t.Fatalf("op %d: contains mismatch", op)
			}
		}
	}
	if !slices.Equal(tr.Keys(), ref.sorted()) {
		t.Fatal("final sets differ")
	}
}

func TestQuickPropertyBatches(t *testing.T) {
	p := parallel.NewPool(4)
	prop := func(rounds []byte, seed int64) bool {
		tr := New[int64, struct{}](Config{LeafCap: 8, RebuildFactor: 2}, p)
		ref := refSet{}
		r := rand.New(rand.NewSource(seed))
		for _, op := range rounds {
			batch := randomBatch(r, 64, 256)
			switch op % 3 {
			case 0:
				if tr.InsertBatched(batch) != ref.insertBatch(batch) {
					return false
				}
			case 1:
				if tr.RemoveBatched(batch) != ref.removeBatch(batch) {
					return false
				}
			default:
				if !slices.Equal(tr.ContainsBatched(batch), ref.containsBatch(batch)) {
					return false
				}
			}
		}
		return slices.Equal(tr.Keys(), ref.sorted())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAlgebraIdentities(t *testing.T) {
	// §2.2: InsertBatched is union, RemoveBatched is difference,
	// ContainsBatched is intersection.
	p := parallel.NewPool(8)
	a := sortedUniqueKeys(41, 20000, 1<<24)
	b := sortedUniqueKeys(42, 20000, 1<<24)

	none := func(k []int64) []struct{} { return make([]struct{}, len(k)) }
	union, _ := parallel.UnionKVInto(p, a, none(a), b, none(b), nil, nil)
	diff, _ := parallel.DifferenceKVInto(p, a, none(a), b, none(b), nil, nil)
	inter, _ := parallel.IntersectKVInto(p, a, none(a), b, none(b), nil, nil)

	tr := NewFromSorted(Config{}, p, a)
	tr.InsertBatched(b)
	if !slices.Equal(tr.Keys(), union) {
		t.Fatal("InsertBatched does not implement union")
	}

	tr = NewFromSorted(Config{}, p, a)
	tr.RemoveBatched(b)
	if !slices.Equal(tr.Keys(), diff) {
		t.Fatal("RemoveBatched does not implement difference")
	}

	tr = NewFromSorted(Config{}, p, a)
	res := tr.ContainsBatched(b)
	var got []int64
	for i, ok := range res {
		if ok {
			got = append(got, b[i])
		}
	}
	if !slices.Equal(got, inter) {
		t.Fatal("ContainsBatched does not implement intersection")
	}
}
