package pbist

import (
	"math/rand"
	"slices"
	"testing"
)

// mapOracle is the reference model for Map differential tests: a
// builtin map for point lookups plus sorted-slice derivation for
// ordered queries.
type mapOracle map[int64]uint64

func (o mapOracle) putBatch(keys []int64, vals []uint64) int {
	n := 0
	for i, k := range keys { // input order: last duplicate wins
		if _, ok := o[k]; !ok {
			n++
		}
		o[k] = vals[i]
	}
	return n
}

func (o mapOracle) deleteBatch(keys []int64) int {
	n := 0
	for _, k := range keys {
		if _, ok := o[k]; ok {
			delete(o, k)
			n++
		}
	}
	return n
}

func (o mapOracle) sortedKeys() []int64 {
	out := make([]int64, 0, len(o))
	for k := range o {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// deleteBatch counts distinct present keys; duplicates in the batch
// must not double-count, so dedupe before consulting the oracle.
func dedupKeys(keys []int64) []int64 {
	cp := slices.Clone(keys)
	slices.Sort(cp)
	return slices.Compact(cp)
}

// TestMapDifferential drives a Map and the oracle with random
// interleavings of PutBatch / DeleteBatch / GetBatch / Ascend over
// unsorted, duplicate-laden batches. CI runs it under -race (the
// `test -race -short` job), which checks the parallel batched
// traversals for data races while the oracle checks their answers.
func TestMapDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := NewMap[int64, uint64](Options{Workers: workers, LeafCap: 8, RebuildFactor: 1})
		ref := mapOracle{}
		r := rand.New(rand.NewSource(int64(1000 + workers)))
		const span = 3000
		for round := 0; round < 60; round++ {
			n := r.Intn(400)
			batch := make([]int64, n)
			for i := range batch {
				batch[i] = r.Int63n(span)
			}
			switch round % 4 {
			case 0, 1:
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = r.Uint64()
				}
				want := ref.putBatch(batch, vals)
				if got := m.PutBatch(batch, vals); got != want {
					t.Fatalf("w%d round %d: PutBatch = %d, want %d", workers, round, got, want)
				}
			case 2:
				want := ref.deleteBatch(dedupKeys(batch))
				if got := m.DeleteBatch(batch); got != want {
					t.Fatalf("w%d round %d: DeleteBatch = %d, want %d", workers, round, got, want)
				}
			default:
				vals, found := m.GetBatch(batch)
				for i, k := range batch {
					rv, ok := ref[k]
					if found[i] != ok || (ok && vals[i] != rv) {
						t.Fatalf("w%d round %d: GetBatch[%d] = (%d,%v), want (%d,%v)",
							workers, round, i, vals[i], found[i], rv, ok)
					}
				}
				// Ascend over a random window must match the sorted
				// oracle exactly, values included.
				lo := r.Int63n(span)
				hi := lo + r.Int63n(span/4)
				var wantK []int64
				for _, k := range ref.sortedKeys() {
					if k >= lo && k <= hi {
						wantK = append(wantK, k)
					}
				}
				var gotK []int64
				for k, v := range m.Ascend(lo, hi) {
					if v != ref[k] {
						t.Fatalf("w%d round %d: Ascend value mismatch at key %d", workers, round, k)
					}
					gotK = append(gotK, k)
				}
				if !slices.Equal(gotK, wantK) {
					t.Fatalf("w%d round %d: Ascend keys = %v, want %v", workers, round, gotK, wantK)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("w%d round %d: Len = %d, want %d", workers, round, m.Len(), len(ref))
			}
		}
		gotK, gotV := m.Items()
		wantK := ref.sortedKeys()
		if !slices.Equal(gotK, wantK) {
			t.Fatalf("w%d: final key sets differ", workers)
		}
		for i, k := range gotK {
			if gotV[i] != ref[k] {
				t.Fatalf("w%d: final value misaligned at key %d", workers, k)
			}
		}
	}
}

// FuzzMapOps decodes an operation stream from raw fuzz bytes and
// differentially checks Map against the oracle. A one-shard
// Concurrent at the same shape replays the stream's writes too, so
// every combining epoch's single write walk — Deletes of absent keys
// included — is checked through PutBatch and DeleteBatch counts, Len
// and Items. Seeds double as regression tests under plain `go test`;
// run `go test -fuzz=FuzzMapOps ./pbist` for open-ended exploration.
func FuzzMapOps(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 2, 3, 1, 2, 3})
	f.Add([]byte{3, 8, 255, 254, 1, 1, 1, 0})
	f.Add([]byte{1, 4, 9, 9, 9, 9, 2, 2, 42})
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := Options{Workers: 2, LeafCap: 4, RebuildFactor: 1}
		m := NewMap[int64, uint64](opts)
		c := NewConcurrent[int64, uint64](ConcurrentOptions{Options: opts})
		defer c.Close()
		ref := mapOracle{}
		for i := 0; i < len(data); {
			op := data[i] % 4
			i++
			n := 0
			if i < len(data) {
				n = int(data[i]) % 16
				i++
			}
			batch := make([]int64, 0, n)
			vals := make([]uint64, 0, n)
			for j := 0; j < n && i < len(data); j++ {
				batch = append(batch, int64(data[i]%64))
				vals = append(vals, uint64(data[i])<<8|uint64(j))
				i++
			}
			switch op {
			case 0, 1:
				want := ref.putBatch(batch, vals)
				if got := m.PutBatch(batch, vals); got != want {
					t.Fatalf("PutBatch(%v) = %d, want %d", batch, got, want)
				}
				if got := c.PutBatch(batch, vals); got != want {
					t.Fatalf("Concurrent.PutBatch(%v) = %d, want %d", batch, got, want)
				}
			case 2:
				want := ref.deleteBatch(dedupKeys(batch))
				if got := m.DeleteBatch(batch); got != want {
					t.Fatalf("DeleteBatch(%v) = %d, want %d", batch, got, want)
				}
				if got := c.DeleteBatch(batch); got != want {
					t.Fatalf("Concurrent.DeleteBatch(%v) = %d, want %d", batch, got, want)
				}
			default:
				gv, gf := m.GetBatch(batch)
				for j, k := range batch {
					rv, ok := ref[k]
					if gf[j] != ok || (ok && gv[j] != rv) {
						t.Fatalf("GetBatch(%v)[%d] = (%d,%v), want (%d,%v)", batch, j, gv[j], gf[j], rv, ok)
					}
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
			}
			if c.Len() != len(ref) {
				t.Fatalf("Concurrent.Len = %d, want %d", c.Len(), len(ref))
			}
		}
		for name, items := range map[string]func() ([]int64, []uint64){"Map": m.Items, "Concurrent": c.Items} {
			gotK, gotV := items()
			if !slices.Equal(gotK, ref.sortedKeys()) {
				t.Fatalf("%s: final keys %v, want %v", name, gotK, ref.sortedKeys())
			}
			for i, k := range gotK {
				if gotV[i] != ref[k] {
					t.Fatalf("%s: final value misaligned at key %d", name, k)
				}
			}
		}
	})
}
