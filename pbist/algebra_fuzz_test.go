package pbist

import (
	"slices"
	"testing"
)

// decodeOperands splits raw fuzz bytes into two small key sets. Keys
// live in [0, 64) so collisions between the operands are common.
func decodeOperands(data []byte) (a, b []int64) {
	if len(data) == 0 {
		return nil, nil
	}
	cut := int(data[0]) % (len(data) + 1)
	rest := data[1:]
	if cut > len(rest) {
		cut = len(rest)
	}
	for _, x := range rest[:cut] {
		a = append(a, int64(x%64))
	}
	for _, x := range rest[cut:] {
		b = append(b, int64(x%64))
	}
	return a, b
}

// FuzzTreeSetAlgebra decodes two operand sets and an operation from
// raw bytes, runs the whole-tree operation, and checks the result
// exactly against a sorted-slice model — including Split/Join round
// trips. Seeds double as regression tests under plain `go test`; run
// `go test -fuzz=FuzzTreeSetAlgebra ./pbist` for exploration.
func FuzzTreeSetAlgebra(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{3, 1, 2, 3, 4, 5, 6})
	f.Add(byte(2), []byte{0, 9, 9, 9, 1, 2})
	f.Add(byte(3), []byte{7, 255, 254, 1, 0, 63, 63})
	f.Add(byte(4), []byte{2, 10, 20, 30, 40})
	f.Add(byte(5), []byte{120, 1, 2, 3})
	f.Fuzz(func(t *testing.T, op byte, data []byte) {
		rawA, rawB := decodeOperands(data)
		a, b := dedup(rawA), dedup(rawB)
		opts := Options{Workers: 2, LeafCap: 4, RebuildFactor: 1}
		ta, tb := NewFromKeys(opts, rawA), NewFromKeys(opts, rawB)

		inA := map[int64]bool{}
		for _, k := range a {
			inA[k] = true
		}
		inB := map[int64]bool{}
		for _, k := range b {
			inB[k] = true
		}

		var got *Tree[int64]
		var want []int64
		switch op % 5 {
		case 0:
			got = ta.Union(tb)
			want = append(want, a...)
			for _, k := range b {
				if !inA[k] {
					want = append(want, k)
				}
			}
		case 1:
			got = ta.Intersect(tb)
			for _, k := range a {
				if inB[k] {
					want = append(want, k)
				}
			}
		case 2:
			got = ta.DiffTree(tb)
			for _, k := range a {
				if !inB[k] {
					want = append(want, k)
				}
			}
		case 3:
			got = ta.SymDiff(tb)
			for _, k := range a {
				if !inB[k] {
					want = append(want, k)
				}
			}
			for _, k := range b {
				if !inA[k] {
					want = append(want, k)
				}
			}
		default:
			// Split at a key decoded from op, then Join back.
			cut := int64(op % 64)
			left, right := ta.Split(cut)
			if lk := left.Keys(); len(lk) > 0 && lk[len(lk)-1] >= cut {
				t.Fatalf("Split(%d): left holds %d", cut, lk[len(lk)-1])
			}
			if rk := right.Keys(); len(rk) > 0 && rk[0] < cut {
				t.Fatalf("Split(%d): right holds %d", cut, rk[0])
			}
			if n := left.Len() + right.Len(); n != len(a) {
				t.Fatalf("Split(%d): %d + %d != %d", cut, left.Len(), right.Len(), len(a))
			}
			got = left.Join(right)
			want = a
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(got.Keys(), want) {
			t.Fatalf("op %d: a=%v b=%v got %v want %v", op%5, a, b, got.Keys(), want)
		}
		if got.Len() != len(want) {
			t.Fatalf("op %d: Len = %d, want %d", op%5, got.Len(), len(want))
		}
		// Operands must survive.
		if !slices.Equal(ta.Keys(), a) || !slices.Equal(tb.Keys(), b) {
			t.Fatalf("op %d mutated an operand", op%5)
		}
	})
}

// FuzzMapUnionPolicy decodes two key-value sets and checks Map.Union
// under both policies against a builtin-map model: result keys, which
// value survives a collision, and operand integrity.
func FuzzMapUnionPolicy(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4, 5}, true)
	f.Add([]byte{}, []byte{9, 9, 9}, false)
	f.Add([]byte{255, 0, 17}, []byte{17, 0}, true)
	f.Add([]byte{42}, []byte{}, false)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, rightWins bool) {
		decode := func(raw []byte, tag uint64) ([]int64, []uint64, map[int64]uint64) {
			var ks []int64
			var vs []uint64
			model := map[int64]uint64{}
			for i, x := range raw {
				k := int64(x % 32)
				v := uint64(i)<<8 | tag
				ks = append(ks, k)
				vs = append(vs, v)
				model[k] = v // last occurrence wins, as in PutBatch
			}
			return ks, vs, model
		}
		ka, va, modelA := decode(rawA, 1)
		kb, vb, modelB := decode(rawB, 2)
		opts := Options{Workers: 2, LeafCap: 4, RebuildFactor: 1}
		ma := NewMapFromItems(opts, ka, va)
		mb := NewMapFromItems(opts, kb, vb)

		policy := LeftWins
		if rightWins {
			policy = RightWins
		}
		got := ma.Union(mb, policy)

		want := map[int64]uint64{}
		for k, v := range modelA {
			want[k] = v
		}
		for k, v := range modelB {
			if _, shared := modelA[k]; !shared || rightWins {
				want[k] = v
			}
		}
		if got.Len() != len(want) {
			t.Fatalf("Union(%v) Len = %d, want %d", policy, got.Len(), len(want))
		}
		gk, gv := got.Items()
		if !isSortedUnique(nil, gk) {
			t.Fatalf("Union(%v) keys not sorted unique: %v", policy, gk)
		}
		for i, k := range gk {
			wv, ok := want[k]
			if !ok {
				t.Fatalf("Union(%v) invented key %d", policy, k)
			}
			if gv[i] != wv {
				t.Fatalf("Union(%v) value for key %d = %#x, want %#x", policy, k, gv[i], wv)
			}
		}
		// Operands unchanged.
		if ma.Len() != len(modelA) || mb.Len() != len(modelB) {
			t.Fatalf("Union(%v) mutated an operand", policy)
		}
	})
}
