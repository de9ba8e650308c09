package parallel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Every test here feeds inputs to one oracle check, checkOp: the four
// set-algebra entry points and the blocked tail against a map-based
// reference. TestAlgebraKVAgainstOracle is the cross product of ops,
// pools, sizes and overlaps; the other tests are single inputs that
// pin one behaviour each.

var opNames = [...]string{opUnion: "union", opIntersect: "intersect", opDifference: "difference", opSymDiff: "symdiff"}

const opCount = setOp(len(opNames))

// entry returns op's exported entry point.
func entry[K Ordered, V any](op setOp) func(*Pool, []K, []V, []K, []V, []K, []V) ([]K, []V) {
	return [...]func(*Pool, []K, []V, []K, []V, []K, []V) ([]K, []V){
		opUnion:      UnionKVInto[K, V],
		opIntersect:  IntersectKVInto[K, V],
		opDifference: DifferenceKVInto[K, V],
		opSymDiff:    SymmetricDifferenceKVInto[K, V],
	}[op]
}

// oracle computes op over two duplicate-free inputs with maps: a key
// common to both takes b's value under union and a's otherwise.
func oracle[K Ordered, V any](op setOp, ak []K, av []V, bk []K, bv []V) ([]K, []V) {
	inA, inB := make(map[K]V, len(ak)), make(map[K]V, len(bk))
	for i, k := range ak {
		inA[k] = av[i]
	}
	for i, k := range bk {
		inB[k] = bv[i]
	}
	var keys []K
	for k := range inA {
		_, both := inB[k]
		if op == opUnion || (op == opIntersect) == both {
			keys = append(keys, k)
		}
	}
	for k := range inB {
		if _, both := inA[k]; !both && (op == opUnion || op == opSymDiff) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	vals := make([]V, len(keys))
	for i, k := range keys {
		va, okA := inA[k]
		vb, okB := inB[k]
		if okA && !(okB && op == opUnion) {
			vals[i] = va
		} else {
			vals[i] = vb
		}
	}
	return keys, vals
}

// checkOp checks op on (a, b) against the oracle: through its entry
// point on every pool given, then through the blocked tail at forced
// block counts in both operand orders. It fails if an input changed
// and returns the keys of the last entry-point result.
func checkOp[K Ordered, V comparable](t testing.TB, op setOp, ak []K, av []V, bk []K, bv []V, pools ...*Pool) []K {
	t.Helper()
	inputs := [][]K{slices.Clone(ak), slices.Clone(bk)}
	wantK, wantV := oracle(op, ak, av, bk, bv)
	var gotK []K
	for _, p := range pools {
		k, v := entry[K, V](op)(p, ak, av, bk, bv, nil, nil)
		expect(t, fmt.Sprintf("%s on %d workers", opNames[op], p.Workers()), k, v, wantK, wantV)
		gotK = k
	}
	for _, blocks := range []int{2, 3, 8} {
		checkBlocked(t, op, blocks, ak, av, bk, bv, wantK, wantV)
	}
	if !slices.Equal(ak, inputs[0]) || !slices.Equal(bk, inputs[1]) {
		t.Fatalf("%s modified an input", opNames[op])
	}
	return gotK
}

// checkBlocked runs op through setKVPar with a forced block count, so
// the gap-closing copy runs however small the inputs are, once in the
// given operand order and once swapped.
func checkBlocked[K Ordered, V comparable](t testing.TB, op setOp, blocks int, ak []K, av []V, bk []K, bv []V, wantK []K, wantV []V) {
	t.Helper()
	r := op.rule()
	n := max(r.bound(len(ak), len(bk)), r.swapped().bound(len(bk), len(ak)))
	k, v := make([]K, n), make([]V, n)
	w := setKVPar(nil, r, ak, av, bk, bv, k, v, blocks)
	expect(t, fmt.Sprintf("%s in %d blocks", opNames[op], blocks), k[:w], v[:w], wantK, wantV)
	w = setKVPar(nil, r.swapped(), bk, bv, ak, av, k, v, blocks)
	expect(t, fmt.Sprintf("%s swapped in %d blocks", opNames[op], blocks), k[:w], v[:w], wantK, wantV)
}

func expect[K Ordered, V comparable](t testing.TB, what string, k []K, v []V, wantK []K, wantV []V) {
	t.Helper()
	if !slices.Equal(k, wantK) {
		t.Fatalf("%s: keys diverge from the oracle (got %d, want %d)", what, len(k), len(wantK))
	}
	if !slices.Equal(v, wantV) {
		t.Fatalf("%s: values diverge from the oracle", what)
	}
}

// overlapPair draws sorted duplicate-free sets of na and nb keys from
// [0, 2^40) that share exactly common keys, interleaved at random.
func overlapPair(r *rand.Rand, na, nb, common int) (a, b []int64) {
	seen := make(map[int64]bool, na+nb)
	all := make([]int64, 0, na+nb-common)
	for len(all) < cap(all) {
		if k := r.Int63n(1 << 40); !seen[k] {
			seen[k] = true
			all = append(all, k)
		}
	}
	a, b = slices.Clone(all[:na]), slices.Clone(all[na-common:])
	slices.Sort(a)
	slices.Sort(b)
	return a, b
}

// tagged returns values derived from the keys and a side tag, so a
// wrong value shows which input it came from.
func tagged(keys []int64, side uint64) []uint64 {
	vs := make([]uint64, len(keys))
	for i, k := range keys {
		vs[i] = uint64(k)*31 + side
	}
	return vs
}

func none[K any](keys []K) []struct{} { return make([]struct{}, len(keys)) }

func sortedUnique(seed int64, n, span int) []int {
	arr := randInts(seed, n, span)
	slices.Sort(arr)
	return slices.Compact(arr)
}

func TestAlgebraKVAgainstOracle(t *testing.T) {
	sizes := []int{0, 1, 7, 600, 5000, 1 << 17}
	if testing.Short() {
		sizes = sizes[:5]
	}
	shapes := []struct {
		name       string
		nb, common func(n int) int
	}{
		{"disjoint", func(n int) int { return n }, func(int) int { return 0 }},
		{"identical", func(n int) int { return n }, func(n int) int { return n }},
		{"half", func(n int) int { return n }, func(n int) int { return n / 2 }},
		{"1:1000", func(n int) int { return (n + 999) / 1000 }, func(n int) int { return (n + 999) / 2000 }},
	}
	pools := []*Pool{nil, NewPool(2), NewPool(16)}
	r := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		for _, sh := range shapes {
			a, b := overlapPair(r, n, sh.nb(n), sh.common(n))
			av, bv := tagged(a, 1), tagged(b, 2)
			for op := range opCount {
				checkOp(t, op, a, av, b, bv, pools...)
				checkOp(t, op, b, bv, a, av, pools...)
			}
		}
	}
}

func TestDifferencePaperExample(t *testing.T) {
	// §2.4: Difference([2 4 5 7 9], [2 5 9]) = [4 7].
	a, b := []int{2, 4, 5, 7, 9}, []int{2, 5, 9}
	if got := checkOp(t, opDifference, a, none(a), b, none(b), NewPool(4)); !slices.Equal(got, []int{4, 7}) {
		t.Fatalf("got %v, want [4 7]", got)
	}
}

func TestMergeStrings(t *testing.T) {
	a, av := []string{"ant", "bee", "cat", "eel"}, []string{"1", "2", "3", "4"}
	b, bv := []string{"ape", "bat", "cat", "dog"}, []string{"5", "6", "7", "8"}
	for op := range opCount {
		checkOp(t, op, a, av, b, bv, nil, NewPool(2))
	}
	got := checkOp(t, opUnion, a, av, b, bv, NewPool(2))
	if want := []string{"ant", "ape", "bat", "bee", "cat", "dog", "eel"}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeMatchesReference(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			sizes := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {100, 3}, {3, 100}, {5000, 5000}, {100000, 7}, {60000, 60000}}
			for _, s := range sizes {
				a := sortedUnique(int64(s[0])+1, s[0], 1<<30)
				b := sortedUnique(int64(s[1])+500, s[1], 1<<30)
				checkOp(t, opUnion, a, none(a), b, none(b), p)
			}
		})
	}
}

func TestDifferenceMatchesReference(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			cases := [][2]int{{0, 0}, {0, 10}, {10, 0}, {1000, 1000}, {50000, 500}, {500, 50000}, {80000, 80000}}
			for _, c := range cases {
				a := sortedUnique(int64(c[0])+11, c[0], 1<<16)
				b := sortedUnique(int64(c[1])+77, c[1], 1<<16)
				checkOp(t, opDifference, a, none(a), b, none(b), p)
			}
		})
	}
}

func TestIntersectMatchesReference(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			cases := [][2]int{{0, 0}, {0, 10}, {10, 0}, {1000, 1000}, {50000, 500}, {80000, 80000}}
			for _, c := range cases {
				a := sortedUnique(int64(c[0])+123, c[0], 1<<16)
				b := sortedUnique(int64(c[1])+456, c[1], 1<<16)
				checkOp(t, opIntersect, a, none(a), b, none(b), p)
			}
		})
	}
}

func TestMergeKVMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 100, 20000} {
		a, b := overlapPair(r, n, n, 0)
		checkOp(t, opUnion, a, tagged(a, 1), b, tagged(b, 2), NewPool(1), NewPool(4), NewPool(8))
	}
}

func TestDifferenceKVMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 50, 30000} {
		// Subtract half of a's own keys plus as many absent ones.
		a, b := overlapPair(r, n, n, n/2)
		checkOp(t, opDifference, a, tagged(a, 1), b, tagged(b, 2), NewPool(1), NewPool(8))
	}
}

func TestMergeLargeUnbalancedParallel(t *testing.T) {
	a := sortedUnique(5, 200000, 1<<30)
	b := sortedUnique(6, 1000, 1<<30)
	checkOp(t, opUnion, a, none(a), b, none(b), NewPool(8))
	checkOp(t, opUnion, b, none(b), a, none(a), NewPool(8))
}

func TestSetOpsDisjointAndIdentical(t *testing.T) {
	a, b := []int{1, 3, 5}, []int{2, 4, 6}
	for op := range opCount {
		checkOp(t, op, a, none(a), b, none(b), NewPool(4))
		checkOp(t, op, a, none(a), a, none(a), NewPool(4))
	}
}

func TestSetOpsEmptySecondOperand(t *testing.T) {
	a := []int{5, 6, 7}
	for op := range opCount {
		checkOp[int, struct{}](t, op, a, none(a), nil, nil, NewPool(4))
		checkOp[int, struct{}](t, op, nil, nil, a, none(a), NewPool(4))
	}
}

func TestDifferenceKVEmptySubtrahend(t *testing.T) {
	ak, av := []int64{1, 5, 9}, []string{"x", "y", "z"}
	gotK, gotV := DifferenceKVInto[int64, string](NewPool(4), ak, av, nil, nil, nil, nil)
	if !slices.Equal(gotK, ak) || !slices.Equal(gotV, av) {
		t.Fatalf("empty subtrahend must copy the input: %v %v", gotK, gotV)
	}
	if k, v := DifferenceKVInto(NewPool(4), nil, nil, ak, av, nil, nil); k != nil || v != nil {
		t.Fatal("empty minuend with a nil destination must return nil")
	}
}

func TestDifferenceReturnsCopy(t *testing.T) {
	a := []int{1, 2, 3}
	got, _ := DifferenceKVInto[int, struct{}](NewPool(2), a, none(a), nil, nil, nil, nil)
	got[0] = 99
	if a[0] != 1 {
		t.Fatal("Difference aliased its input")
	}
}

func TestMergeInputsUntouched(t *testing.T) {
	// checkOp fails on a modified input; half the keys overlap, so every
	// emit branch runs.
	a, b := overlapPair(rand.New(rand.NewSource(3)), 3000, 3000, 1500)
	for op := range opCount {
		checkOp(t, op, a, tagged(a, 1), b, tagged(b, 2), NewPool(8))
	}
}

func TestMergeIntoReusesBuffer(t *testing.T) {
	a, b := overlapPair(rand.New(rand.NewSource(1)), 5000, 5000, 2500)
	av, bv := tagged(a, 1), tagged(b, 2)
	dstK, dstV := make([]int64, 1, len(a)+len(b)), make([]uint64, 1, len(a)+len(b))
	for op := range opCount {
		wantK, wantV := oracle(op, a, av, b, bv)
		for _, p := range []*Pool{nil, NewPool(4)} {
			k, v := entry[int64, uint64](op)(p, a, av, b, bv, dstK, dstV)
			if &k[0] != &dstK[0] || &v[0] != &dstV[0] {
				t.Fatalf("%s: a destination with room for the worst case was not reused", opNames[op])
			}
			expect(t, opNames[op]+" into a reused destination", k, v, wantK, wantV)
		}
		f := entry[int64, uint64](op)
		if n := testing.AllocsPerRun(10, func() { f(nil, a, av, b, bv, dstK, dstV) }); n != 0 {
			t.Fatalf("%s: sequential kernel into a reused destination allocated %.0f times", opNames[op], n)
		}
	}
}

func TestMergeIntoRejectsBadDestination(t *testing.T) {
	// A destination too small for the worst case is left alone and the
	// output allocated.
	a, b := []int64{1, 3}, []int64{2, 4}
	dstK, dstV := []int64{-1, -1, -1}, []uint64{7, 7, 7}
	k, _ := UnionKVInto(nil, a, tagged(a, 1), b, tagged(b, 2), dstK, dstV)
	if !slices.Equal(k, []int64{1, 2, 3, 4}) || !slices.Equal(dstK, []int64{-1, -1, -1}) || !slices.Equal(dstV, []uint64{7, 7, 7}) {
		t.Fatalf("short destination: got %v, destination now %v %v", k, dstK, dstV)
	}
}

func TestMergeQuickProperty(t *testing.T) {
	prop := func(x, y []int16) bool {
		a, b := quickSet(x), quickSet(y)
		checkOp(t, opUnion, a, none(a), b, none(b), NewPool(8))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetOpsQuickProperty(t *testing.T) {
	prop := func(x, y []uint8) bool {
		a, b := quickSet(x), quickSet(y)
		checkOp(t, opDifference, a, none(a), b, none(b), NewPool(8))
		checkOp(t, opIntersect, a, none(a), b, none(b), NewPool(8))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// quickSet turns arbitrary values into a sorted duplicate-free set.
func quickSet[T int16 | uint8](xs []T) []int {
	a := make([]int, len(xs))
	for i, v := range xs {
		a[i] = int(v)
	}
	slices.Sort(a)
	return slices.Compact(a)
}

func TestDifferenceIntersectPartitionInput(t *testing.T) {
	// For any a, Difference(a,b) and Intersect(a,b) partition a.
	p := NewPool(4)
	a := sortedUnique(9, 30000, 1<<15)
	b := sortedUnique(10, 30000, 1<<15)
	d := checkOp(t, opDifference, a, none(a), b, none(b), p)
	i := checkOp(t, opIntersect, a, none(a), b, none(b), p)
	if got := checkOp(t, opUnion, d, none(d), i, none(i), p); !slices.Equal(got, a) {
		t.Fatal("difference ∪ intersection != original set")
	}
}

func TestUnionKVPolicyByArgumentOrder(t *testing.T) {
	ak := []int64{1, 2, 3}
	av := []uint64{10, 20, 30}
	bk := []int64{2, 3, 4}
	bv := []uint64{200, 300, 400}
	// Second argument wins on common keys.
	_, v := UnionKVInto[int64, uint64](nil, ak, av, bk, bv, nil, nil)
	if !slices.Equal(v, []uint64{10, 200, 300, 400}) {
		t.Fatalf("UnionKVInto(a, b) values = %v", v)
	}
	k, v := UnionKVInto[int64, uint64](nil, bk, bv, ak, av, nil, nil)
	if !slices.Equal(k, []int64{1, 2, 3, 4}) {
		t.Fatalf("UnionKVInto(b, a) keys = %v", k)
	}
	if !slices.Equal(v, []uint64{10, 20, 30, 400}) {
		t.Fatalf("UnionKVInto(b, a) values = %v", v)
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
	r := rand.New(rand.NewSource(7))
	for op := range opCount {
		ak, bk := overlapPair(r, 2000, 2000, 1000)
		av, bv := tagged(ak, 1), tagged(bk, 2)
		gotK, gotV := entry[int64, uint64](op)(p, ak, av, bk, bv, nil, nil)
		wantK, wantV := slices.Clone(gotK), slices.Clone(gotV)
		for i := range ak {
			ak[i], av[i] = -1, 0
		}
		for i := range bk {
			bk[i], bv[i] = -1, 0
		}
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
			t.Fatalf("%s output aliases an input slice", opNames[op])
		}
	}
}

// TestAlgebraKVManyBlocksTinyOperand reproduces the trailing-block
// overshoot: a pool large enough that blocks² exceeds the bigger
// operand makes ceil-rounded block starts pass the end of a, which
// must yield empty blocks, not a slice-bounds panic.
func TestAlgebraKVManyBlocksTinyOperand(t *testing.T) {
	p := NewPool(256)
	a, b := overlapPair(rand.New(rand.NewSource(13)), 599_100, 1, 0)
	av, bv := tagged(a, 1), tagged(b, 2)
	for op := range opCount {
		wantK, wantV := oracle(op, a, av, b, bv)
		k, v := entry[int64, uint64](op)(p, a, av, b, bv, nil, nil)
		expect(t, opNames[op]+" on an oversubscribed pool", k, v, wantK, wantV)
	}
}

func TestAlgebraKVLengthMismatchPanics(t *testing.T) {
	for op := range opCount {
		for _, args := range [][2][]int64{{{1}, nil}, {nil, {1}}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: mismatched keys/vals did not panic", opNames[op])
					}
				}()
				entry[int64, uint64](op)(nil, args[0], nil, args[1], nil, nil, nil)
			}()
		}
	}
}

// FuzzSetKernel builds two sorted sets from the fuzz bytes and checks
// every op against the oracle, through the entry points and through
// the blocked tail at a fuzzed block count of 2–8.
func FuzzSetKernel(f *testing.F) {
	f.Add([]byte{2, 4, 5, 7, 9}, []byte{2, 5, 9}, uint8(0))
	f.Add([]byte{1, 3, 5}, []byte{2, 4, 6}, uint8(3))
	f.Add([]byte{}, []byte{9, 9, 1}, uint8(6))
	f.Fuzz(func(t *testing.T, x, y []byte, blocks uint8) {
		a, b := quickSet(x), quickSet(y)
		av, bv := make([]int, len(a)), make([]int, len(b))
		for i, k := range a {
			av[i] = k
		}
		for i, k := range b {
			bv[i] = -k
		}
		for op := range opCount {
			checkOp(t, op, a, av, b, bv, nil, NewPool(2))
			wantK, wantV := oracle(op, a, av, b, bv)
			checkBlocked(t, op, 2+int(blocks%7), a, av, b, bv, wantK, wantV)
		}
	})
}
