package parallel

import (
	"math/rand"
	"slices"
	"testing"
)

// algebraOracle computes union/intersect/symdiff of two sorted unique
// KV sequences with a plain sequential two-pointer walk, the reference
// the blocked kernels are checked against.
func algebraOracle(ak []int64, av []uint64, bk []int64, bv []uint64, op algebraOp) ([]int64, []uint64) {
	var outK []int64
	var outV []uint64
	i, j := 0, 0
	for i < len(ak) || j < len(bk) {
		switch {
		case j == len(bk) || (i < len(ak) && ak[i] < bk[j]):
			if op != opIntersect {
				outK = append(outK, ak[i])
				outV = append(outV, av[i])
			}
			i++
		case i == len(ak) || bk[j] < ak[i]:
			if op != opIntersect {
				outK = append(outK, bk[j])
				outV = append(outV, bv[j])
			}
			j++
		default:
			switch op {
			case opUnion: // second input wins
				outK = append(outK, bk[j])
				outV = append(outV, bv[j])
			case opIntersect: // first input's value
				outK = append(outK, ak[i])
				outV = append(outV, av[i])
			}
			i++
			j++
		}
	}
	return outK, outV
}

// randomKV draws a sorted duplicate-free key set of size n from
// [0, span) with values derived from keys and a side tag, so a value
// mismatch identifies which input a wrong value came from.
func randomKV(r *rand.Rand, n int, span int64, side uint64) ([]int64, []uint64) {
	set := make(map[int64]struct{}, n)
	for len(set) < n {
		set[r.Int63n(span)] = struct{}{}
	}
	ks := make([]int64, 0, n)
	for k := range set {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	vs := make([]uint64, len(ks))
	for i, k := range ks {
		vs[i] = uint64(k)*31 + side
	}
	return ks, vs
}

func TestAlgebraKVAgainstOracle(t *testing.T) {
	pools := map[string]*Pool{"nil": nil, "w1": NewPool(1), "w4": NewPool(4), "w16": NewPool(16)}
	sizes := [][2]int{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 1000}, {1000, 3},
		{100, 100}, {2000, 2000}, {5000, 7}, {7, 5000}, {10000, 10000},
	}
	ops := map[string]algebraOp{"union": opUnion, "intersect": opIntersect, "symdiff": opSymDiff}
	for pname, p := range pools {
		for _, sz := range sizes {
			r := rand.New(rand.NewSource(int64(sz[0]*31 + sz[1])))
			// A dense span forces heavy key overlap (it must still hold
			// max(|a|,|b|) distinct keys); a sparse span exercises the
			// mostly-disjoint paths.
			dense := int64(max(sz[0], sz[1], 1)) * 2
			for _, span := range []int64{dense, 1 << 40} {
				ak, av := randomKV(r, sz[0], span, 1)
				bk, bv := randomKV(r, sz[1], span, 2)
				for oname, op := range ops {
					wantK, wantV := algebraOracle(ak, av, bk, bv, op)
					var gotK []int64
					var gotV []uint64
					switch op {
					case opUnion:
						gotK, gotV = UnionKV(p, ak, av, bk, bv)
					case opIntersect:
						gotK, gotV = IntersectKVInto(p, ak, av, bk, bv, nil, nil)
					default:
						gotK, gotV = SymmetricDifferenceKVInto(p, ak, av, bk, bv, nil, nil)
					}
					if !slices.Equal(gotK, wantK) {
						t.Fatalf("%s/%s |a|=%d |b|=%d span=%d: keys diverge (got %d, want %d)",
							pname, oname, sz[0], sz[1], span, len(gotK), len(wantK))
					}
					for i := range gotV {
						if gotV[i] != wantV[i] {
							t.Fatalf("%s/%s |a|=%d |b|=%d span=%d: value[%d] = %d, want %d (key %d)",
								pname, oname, sz[0], sz[1], span, i, gotV[i], wantV[i], gotK[i])
						}
					}
				}
			}
		}
	}
}

func TestUnionKVPolicyByArgumentOrder(t *testing.T) {
	ak := []int64{1, 2, 3}
	av := []uint64{10, 20, 30}
	bk := []int64{2, 3, 4}
	bv := []uint64{200, 300, 400}
	// Second argument wins on common keys.
	_, v := UnionKV[int64, uint64](nil, ak, av, bk, bv)
	if !slices.Equal(v, []uint64{10, 200, 300, 400}) {
		t.Fatalf("UnionKV(a, b) values = %v", v)
	}
	k, v := UnionKV[int64, uint64](nil, bk, bv, ak, av)
	if !slices.Equal(k, []int64{1, 2, 3, 4}) {
		t.Fatalf("UnionKV(b, a) keys = %v", k)
	}
	if !slices.Equal(v, []uint64{10, 20, 30, 400}) {
		t.Fatalf("UnionKV(b, a) values = %v", v)
	}
	// Intersection values come from the first argument.
	k, v = IntersectKVInto[int64, uint64](nil, ak, av, bk, bv, nil, nil)
	if !slices.Equal(k, []int64{2, 3}) || !slices.Equal(v, []uint64{20, 30}) {
		t.Fatalf("IntersectKVInto(a, b) = %v %v", k, v)
	}
	_, v = IntersectKVInto[int64, uint64](nil, bk, bv, ak, av, nil, nil)
	if !slices.Equal(v, []uint64{200, 300}) {
		t.Fatalf("IntersectKVInto(b, a) values = %v", v)
	}
	// Symmetric difference keeps each survivor's own value.
	k, v = SymmetricDifferenceKVInto[int64, uint64](nil, ak, av, bk, bv, nil, nil)
	if !slices.Equal(k, []int64{1, 4}) || !slices.Equal(v, []uint64{10, 400}) {
		t.Fatalf("SymmetricDifferenceKVInto = %v %v", k, v)
	}
}

func TestAlgebraKVDoesNotAliasInputs(t *testing.T) {
	p := NewPool(4)
	ak, av := randomKV(rand.New(rand.NewSource(7)), 2000, 1<<20, 1)
	bk, bv := randomKV(rand.New(rand.NewSource(8)), 2000, 1<<20, 2)
	gotK, gotV := UnionKV(p, ak, av, bk, bv)
	wantK := slices.Clone(gotK)
	wantV := slices.Clone(gotV)
	for i := range ak {
		ak[i], av[i] = -1, 0
	}
	for i := range bk {
		bk[i], bv[i] = -1, 0
	}
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatal("UnionKV output aliases an input slice")
	}
}

// TestAlgebraKVManyBlocksTinyOperand reproduces the trailing-block
// overshoot: a pool large enough that blocks² exceeds the bigger
// operand makes ceil-rounded block starts pass the end of a, which
// must yield empty segments, not a slice-bounds panic. The blocked
// Difference/Intersect/DifferenceKVInto kernels share the pattern.
func TestAlgebraKVManyBlocksTinyOperand(t *testing.T) {
	p := NewPool(256)
	r := rand.New(rand.NewSource(13))
	ak, av := randomKV(r, 599_100, 1<<40, 1)
	bk, bv := randomKV(r, 1, 1<<40, 2)
	wantK, wantV := algebraOracle(ak, av, bk, bv, opUnion)
	gotK, gotV := UnionKV(p, ak, av, bk, bv)
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatal("union with oversubscribed pool diverges from oracle")
	}
	if ik, _ := IntersectKVInto(p, ak, av, ak, av, nil, nil); len(ik) != len(ak) {
		t.Fatal("self-intersection with oversubscribed pool lost keys")
	}
	if got := Difference(p, ak, bk); len(got) < len(ak)-1 {
		t.Fatal("Difference with oversubscribed pool lost keys")
	}
	keptK, _ := DifferenceKVInto(p, ak, av, bk, nil, nil)
	if len(keptK) < len(ak)-1 {
		t.Fatal("DifferenceKVInto with oversubscribed pool lost keys")
	}
}

func TestAlgebraKVLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"union":     func() { UnionKV[int64, uint64](nil, []int64{1}, nil, nil, nil) },
		"intersect": func() { IntersectKVInto[int64, uint64](nil, nil, nil, []int64{1}, nil, nil, nil) },
		"symdiff":   func() { SymmetricDifferenceKVInto[int64, uint64](nil, []int64{1}, nil, nil, nil, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: mismatched keys/vals did not panic", name)
				}
			}()
			f()
		}()
	}
}
