package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// payload derives a checkable value from a key so alignment bugs show
// up as value mismatches anywhere in the tree.
func payload(k int64, gen int) uint64 {
	return uint64(k)*0x9e3779b97f4a7c15 + uint64(gen)
}

func payloads(keys []int64, gen int) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = payload(k, gen)
	}
	return out
}

func TestPutGetBatchedRoundTrip(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			keys := sortedUniqueKeys(51, 20000, 1<<34)
			tr := New[int64, uint64](Config{}, p)
			if n := tr.PutBatched(keys, payloads(keys, 1)); n != len(keys) {
				t.Fatalf("PutBatched inserted %d, want %d", n, len(keys))
			}
			vals, found := tr.GetBatched(keys)
			for i, k := range keys {
				if !found[i] || vals[i] != payload(k, 1) {
					t.Fatalf("GetBatched[%d] = (%d, %v), want (%d, true)", i, vals[i], found[i], payload(k, 1))
				}
			}
			// Overwrite every value: size must not change, values must.
			if n := tr.PutBatched(keys, payloads(keys, 2)); n != 0 {
				t.Fatalf("overwrite PutBatched inserted %d, want 0", n)
			}
			if tr.Len() != len(keys) {
				t.Fatalf("Len = %d after overwrite, want %d", tr.Len(), len(keys))
			}
			vals, _ = tr.GetBatched(keys)
			for i, k := range keys {
				if vals[i] != payload(k, 2) {
					t.Fatalf("value %d not overwritten", i)
				}
			}
		})
	}
}

func TestGetBatchedAbsentAndDead(t *testing.T) {
	keys := sortedUniqueKeys(52, 10000, 1<<30)
	tr := NewFromSortedKV(Config{}, parallel.NewPool(4), keys, payloads(keys, 0))
	dead := keys[2000:5000]
	tr.RemoveBatched(dead)
	vals, found := tr.GetBatched(keys)
	for i, k := range keys {
		isDead := i >= 2000 && i < 5000
		if found[i] == isDead {
			t.Fatalf("found[%d] = %v, dead = %v", i, found[i], isDead)
		}
		if isDead && vals[i] != 0 {
			t.Fatalf("dead key %d leaked value %d", k, vals[i])
		}
	}
	// Reviving a dead key must store the NEW value, not resurrect the
	// stale one left in the vals slot.
	if n := tr.PutBatched(dead, payloads(dead, 9)); n != len(dead) {
		t.Fatalf("revive PutBatched = %d, want %d", n, len(dead))
	}
	vals, found = tr.GetBatched(dead)
	for i, k := range dead {
		if !found[i] || vals[i] != payload(k, 9) {
			t.Fatalf("revived key %d has value %d, want %d", k, vals[i], payload(k, 9))
		}
	}
}

// TestMapDifferentialWithRebuilds drives the KV tree through a churn
// profile aggressive enough to exercise every rebuild path (flatten +
// DifferenceKVInto / UnionKVInto + buildIdeal) and checks values never detach
// from their keys.
func TestMapDifferentialWithRebuilds(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			tr := New[int64, uint64](Config{LeafCap: 4, RebuildFactor: 1}, p)
			ref := map[int64]uint64{}
			r := rand.New(rand.NewSource(53))
			const span = 4000
			for round := 0; round < 60; round++ {
				batch := randomBatch(r, 700, span)
				switch round % 4 {
				case 0, 1:
					vals := payloads(batch, round)
					want := 0
					for i, k := range batch {
						if _, ok := ref[k]; !ok {
							want++
						}
						ref[k] = vals[i]
					}
					if got := tr.PutBatched(batch, vals); got != want {
						t.Fatalf("round %d: PutBatched = %d, want %d", round, got, want)
					}
				case 2:
					want := 0
					for _, k := range batch {
						if _, ok := ref[k]; ok {
							delete(ref, k)
							want++
						}
					}
					if got := tr.RemoveBatched(batch); got != want {
						t.Fatalf("round %d: RemoveBatched = %d, want %d", round, got, want)
					}
				default:
					vals, found := tr.GetBatched(batch)
					for i, k := range batch {
						rv, ok := ref[k]
						if found[i] != ok || (ok && vals[i] != rv) {
							t.Fatalf("round %d: GetBatched[%d] = (%d,%v), want (%d,%v)",
								round, i, vals[i], found[i], rv, ok)
						}
					}
				}
				if tr.Len() != len(ref) {
					t.Fatalf("round %d: Len = %d, want %d", round, tr.Len(), len(ref))
				}
			}
			gotK, gotV := tr.Items()
			wantK := make([]int64, 0, len(ref))
			for k := range ref {
				wantK = append(wantK, k)
			}
			slices.Sort(wantK)
			if !slices.Equal(gotK, wantK) {
				t.Fatal("final key sets differ")
			}
			for i, k := range gotK {
				if gotV[i] != ref[k] {
					t.Fatalf("Items value misaligned at key %d", k)
				}
			}
		})
	}
}

func TestValueCarryingQueries(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50}
	tr := NewFromSortedKV(Config{LeafCap: 2}, nil, keys, payloads(keys, 3))
	if k, v, ok := tr.Min(); !ok || k != 10 || v != payload(10, 3) {
		t.Fatalf("Min = (%d,%d,%v)", k, v, ok)
	}
	if k, v, ok := tr.Max(); !ok || k != 50 || v != payload(50, 3) {
		t.Fatalf("Max = (%d,%d,%v)", k, v, ok)
	}
	if k, v, ok := tr.Select(2); !ok || k != 30 || v != payload(30, 3) {
		t.Fatalf("Select(2) = (%d,%d,%v)", k, v, ok)
	}
	rk, rv := tr.RangeKV(15, 45)
	if !slices.Equal(rk, []int64{20, 30, 40}) {
		t.Fatalf("RangeKV keys = %v", rk)
	}
	for i, k := range rk {
		if rv[i] != payload(k, 3) {
			t.Fatalf("RangeKV value misaligned at %d", i)
		}
	}
	if v, ok := tr.Get(30); !ok || v != payload(30, 3) {
		t.Fatalf("Get(30) = (%d,%v)", v, ok)
	}
	if _, ok := tr.Get(31); ok {
		t.Fatal("Get(31) found a phantom key")
	}
	if !tr.Put(60, 7) || tr.Put(60, 8) {
		t.Fatal("scalar Put new/overwrite semantics wrong")
	}
	if v, _ := tr.Get(60); v != 8 {
		t.Fatalf("Get(60) = %d after overwrite, want 8", v)
	}
}

func TestIterators(t *testing.T) {
	keys := sortedUniqueKeys(54, 5000, 1<<30)
	tr := NewFromSortedKV(Config{LeafCap: 8}, parallel.NewPool(4), keys, payloads(keys, 5))
	dead := keys[1000:2000]
	tr.RemoveBatched(dead)
	live := append(slices.Clone(keys[:1000]), keys[2000:]...)

	var gotK []int64
	for k, v := range tr.All() {
		if v != payload(k, 5) {
			t.Fatalf("All: value misaligned at key %d", k)
		}
		gotK = append(gotK, k)
	}
	if !slices.Equal(gotK, live) {
		t.Fatal("All does not visit exactly the live keys in order")
	}

	// Ascend over a window must agree with RangeKV.
	lo, hi := live[len(live)/4], live[3*len(live)/4]
	wantK, wantV := tr.RangeKV(lo, hi)
	gotK = gotK[:0]
	var gotV []uint64
	for k, v := range tr.Ascend(lo, hi) {
		gotK = append(gotK, k)
		gotV = append(gotV, v)
	}
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatal("Ascend disagrees with RangeKV")
	}

	// Early termination must stop the walk, not panic or overrun.
	n := 0
	for range tr.All() {
		n++
		if n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("early break visited %d pairs", n)
	}

	// Inverted bounds yield nothing.
	for k := range tr.Ascend(10, 5) {
		t.Fatalf("Ascend(10, 5) yielded %d", k)
	}
}

func TestPutBatchedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PutBatched with mismatched lengths must panic")
		}
	}()
	tr := New[int64, uint64](Config{}, nil)
	tr.PutBatched([]int64{1, 2}, []uint64{1})
}
