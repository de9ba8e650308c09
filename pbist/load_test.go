package pbist

import (
	"math"
	"strings"
	"testing"
)

// TestShardedLoadCut checks the bulk load's cut: every loaded key is
// answered, and every shard tree holds exactly the keys Shard routes
// to it, on one shard, a shard count that divides nothing evenly, and
// the default eight.
func TestShardedLoadCut(t *testing.T) {
	const n = 1 << 14
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 3*int64(i) - n // negative and positive keys
		vals[i] = uint64(i)
	}
	for _, shards := range []int{1, 3, 8} {
		s := NewShardedFromItems(ShardedOptions{Shards: shards}, keys, vals)
		want := make([]int, shards)
		for i, k := range keys {
			want[s.part.Shard(k)]++
			if v, ok := s.Get(k); !ok || v != vals[i] {
				t.Fatalf("shards=%d: Get(%d) = %d, %v; want %d, true", shards, k, v, ok, vals[i])
			}
		}
		for i, tr := range s.trees {
			if tr.Len() != want[i] {
				t.Errorf("shards=%d: shard %d tree holds %d keys, Shard routes %d to it", shards, i, tr.Len(), want[i])
			}
		}
		if s.Len() != n {
			t.Errorf("shards=%d: Len = %d, want %d", shards, s.Len(), n)
		}
		s.Close()
	}
}

// TestNaNKeyPanics checks that every write rejects a NaN key:
// normalization where the operation normalizes, a scan or a check of
// the one key where it does not. Every comparison with NaN is false,
// so a batch holding one used to pass as sorted: NewMapFromItems of
// [3, NaN, 1, 2] then missed Get(1), and PutBatch([NaN, 5, 1]) on an
// empty map left neither 5 nor 1 readable. The NaN sits first, in the
// middle, last and alone, in batches checked inline and in blocks on
// the pool, sorted around it and not.
func TestNaNKeyPanics(t *testing.T) {
	nan := math.NaN()
	batches := [][]float64{
		{3, nan, 1, 2},
		{nan, 5, 1},
		{1, 2, nan},
		{nan},
	}
	for _, at := range []int{0, sortGrain + 7, 3*sortGrain - 1} {
		big := make([]float64, 3*sortGrain)
		for i := range big {
			big[i] = float64(i)
		}
		big[at] = nan
		batches = append(batches, big)
	}
	for _, keys := range batches {
		vals := make([]int, len(keys))
		for name, f := range map[string]func(){
			"NewMapFromItems":     func() { NewMapFromItems(Options{}, keys, vals) },
			"Map.PutBatch":        func() { NewMap[float64, int](Options{}).PutBatch(keys, vals) },
			"Map.GetBatch":        func() { NewMap[float64, int](Options{}).GetBatch(keys) },
			"NewFromKeys":         func() { NewFromKeys(Options{}, keys) },
			"Tree.InsertBatch":    func() { New[float64](Options{}).InsertBatch(keys) },
			"Tree.RemoveBatch":    func() { New[float64](Options{}).RemoveBatch(keys) },
			"NewShardedFromItems": func() { NewShardedFromItems(ShardedOptions{Shards: 3}, keys, vals).Close() },
			"Sharded.PutBatch": func() {
				s := NewShardedRange[float64, int](ShardedOptions{Shards: 1}, 0, 100)
				defer s.Close()
				s.PutBatch(keys, vals)
			},
			"Sharded.DeleteBatch": func() {
				s := NewShardedRange[float64, int](ShardedOptions{Shards: 2}, 0, 100)
				defer s.Close()
				s.DeleteBatch(keys)
			},
		} {
			if msg := panicOf(f); !strings.Contains(msg, nanKeyPanic) {
				t.Errorf("%s of %d keys: panic %q, want %q", name, len(keys), msg, nanKeyPanic)
			}
		}
	}

	// The single-key writes reject a NaN too, and leave the structure
	// whole: a NaN stored by Map.Put used to hide the keys put after it.
	m := NewMap[float64, int](Options{})
	tr := New[float64](Options{})
	s := NewShardedRange[float64, int](ShardedOptions{Shards: 2}, 0, 100)
	defer s.Close()
	for name, f := range map[string]func(){
		"Map.Put":        func() { m.Put(nan, 1) },
		"Map.Delete":     func() { m.Delete(nan) },
		"Tree.Insert":    func() { tr.Insert(nan) },
		"Tree.Remove":    func() { tr.Remove(nan) },
		"Sharded.Put":    func() { s.Put(nan, 1) },
		"Sharded.Delete": func() { s.Delete(nan) },
	} {
		if msg := panicOf(f); !strings.Contains(msg, nanKeyPanic) {
			t.Errorf("%s(NaN): panic %q, want %q", name, msg, nanKeyPanic)
		}
	}
	for _, k := range []float64{1, 2} {
		m.Put(k, 1)
		tr.Insert(k)
		s.Put(k, 1)
	}
	for _, k := range []float64{1, 2} {
		if _, ok := m.Get(k); !ok {
			t.Errorf("Map.Get(%v) missed after a rejected NaN", k)
		}
		if !tr.Contains(k) {
			t.Errorf("Tree.Contains(%v) missed after a rejected NaN", k)
		}
		if _, ok := s.Get(k); !ok {
			t.Errorf("Sharded.Get(%v) missed after a rejected NaN", k)
		}
	}
}

// panicOf runs f and returns the message it panicked with, or "" when
// it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}
