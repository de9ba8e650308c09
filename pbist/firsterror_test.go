package pbist

import (
	"errors"
	"sync"
	"testing"
)

// TestFirstErrorKeepsFirst pins the CompareAndSwap contract: once an
// error is installed, later reporters must not displace it. The old
// plain Store let the *last* failing shard win, so an error raced in
// by a second shard could replace the one a caller was about to read.
func TestFirstErrorKeepsFirst(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	var f firstError
	f.set(errA)
	f.set(errB)
	if e := f.p.Load(); e == nil || *e != errA {
		t.Fatalf("firstError kept %v, want the first error %v", e, errA)
	}

	// Under contention exactly one reporter wins and the winner never
	// changes afterwards.
	var g firstError
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		errs[i] = errors.New(string(rune('a' + i)))
		wg.Add(1)
		go func(err error) {
			defer wg.Done()
			g.set(err)
		}(errs[i])
	}
	wg.Wait()
	won := g.p.Load()
	if won == nil {
		t.Fatal("no error retained")
	}
	g.set(errors.New("latecomer"))
	if e := g.p.Load(); e != won {
		t.Fatal("winner displaced by a later set")
	}
}

// TestShardedTwoShardsFailing is the regression for the gather-path
// race: several shards fail in the same scatter (here: two of the four
// combiners are closed under the frontend's feet), their goroutines
// report concurrently, and the operation must still panic with the
// closed-frontend message — while the version read paths, batched
// reads included, never touch a combiner and keep working.
func TestShardedTwoShardsFailing(t *testing.T) {
	ks := make([]int64, 512)
	vs := make([]uint64, 512)
	for i := range ks {
		ks[i] = int64(i) * 7
		vs[i] = uint64(i)
	}
	s := NewShardedFromItems[int64, uint64](ShardedOptions{Shards: 4}, ks, vs)
	defer s.Close()

	// Fail two shards. Every cross-shard batch now has two concurrent
	// error reporters.
	s.cbs[1].Close()
	s.cbs[3].Close()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s with two failed shards did not panic", name)
			}
		}()
		f()
	}
	// The atomic cut reads published versions, not combiners: the
	// whole-structure reads still answer, reflecting the bulk load.
	if s.Len() != len(ks) {
		t.Fatalf("Len = %d with two shards closed, want %d", s.Len(), len(ks))
	}
	gotK, _ := s.Items()
	if len(gotK) != len(ks) {
		t.Fatalf("Items returned %d keys, want %d", len(gotK), len(ks))
	}
	if v, ok := s.GetFast(ks[3]); !ok || v != vs[3] {
		t.Fatalf("GetFast = %d,%v with two shards closed", v, ok)
	}
	// The batched reads answer from the cut too: every bulk-loaded key
	// with its value, and the key one past each of them absent.
	probe := make([]int64, 0, 2*len(ks))
	for _, k := range ks {
		probe = append(probe, k, k+1)
	}
	gotV, gotF := s.GetBatch(probe)
	gotC := s.ContainsBatch(probe)
	for i, k := range probe {
		want := i%2 == 0
		if gotF[i] != want || gotC[i] != want || (want && gotV[i] != vs[i/2]) {
			t.Fatalf("key %d with two shards closed: GetBatch = %d,%v, ContainsBatch = %v; want present=%v",
				k, gotV[i], gotF[i], gotC[i], want)
		}
	}

	mustPanic("Flush", func() { s.Flush() })
	// The mutating batches panic too — but first apply on the two live
	// shards (cross-shard batches are atomic per shard, not across
	// shards, failed or not), so they come last.
	mustPanic("PutBatch", func() { s.PutBatch(ks, vs) })
	mustPanic("DeleteBatch", func() { s.DeleteBatch(ks) })

	// The closed shards' versions are untouched by the failed batches
	// (ks[200] sits in the second quantile, owned by closed shard 1).
	if v, ok := s.GetFast(ks[200]); !ok || v != vs[200] {
		t.Fatalf("closed shard's GetFast = %d,%v after failed batches", v, ok)
	}
}
