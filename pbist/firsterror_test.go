package pbist

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
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
// closed-frontend message — while the reads, point and batched, never
// touch a combiner and keep working.
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
	// Point reads answer every bulk-loaded key, on the closed shards as
	// well as the live ones, and the key one past each of them absent.
	for i, k := range ks {
		if v, ok := s.Get(k); !ok || v != vs[i] {
			t.Fatalf("Get(%d) = %d,%v with two shards closed, want %d", k, v, ok, vs[i])
		}
		if !s.Contains(k) || s.Contains(k+1) {
			t.Fatalf("Contains(%d), Contains(%d) = %v, %v with two shards closed; want true, false",
				k, k+1, s.Contains(k), s.Contains(k+1))
		}
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
	if v, ok := s.Get(ks[200]); !ok || v != vs[200] {
		t.Fatalf("closed shard's Get = %d,%v after failed batches", v, ok)
	}
}

// panicOnKey is a shard tree whose epochs panic when they write bad.
type panicOnKey struct {
	*core.Tree[int64, uint64]
	bad int64
}

func (e panicOnKey) ApplyResolved(keys []int64, vals []uint64, live, found []bool) int {
	if slices.Contains(keys, e.bad) {
		panic(fmt.Sprintf("bad key %d", e.bad))
	}
	return e.Tree.ApplyResolved(keys, vals, live, found)
}

// TestShardedPoisonedEpoch checks that a panicking epoch fails its
// shard closed: the write that ran it and every later write to the
// shard panic with the poisoned message and the epoch's panic value,
// not the closed-frontend one, the other shards keep serving, and
// Close returns.
func TestShardedPoisonedEpoch(t *testing.T) {
	s := NewShardedRange[int64, uint64](ShardedOptions{Shards: 2}, 0, 1000)
	s.cbs[0] = combine.New[int64, uint64](panicOnKey{s.trees[0], 13}, s.pool, combine.Options{})
	s.Put(1, 1)
	for _, f := range []func(){
		func() { s.Put(13, 13) },
		func() { s.Put(2, 2) },
		func() { s.Delete(1) },
		func() { s.PutBatch([]int64{3, 900}, []uint64{3, 900}) },
		func() { s.Flush() },
	} {
		msg := panicOf(f)
		if !strings.HasPrefix(msg, poisonedPanic) || !strings.Contains(msg, "bad key 13") {
			t.Errorf("panic %q, want %q and the panic value", msg, poisonedPanic)
		}
	}
	if !s.Put(901, 901) {
		t.Error("the shard with no panicking epoch stopped serving")
	}
	for _, k := range []int64{1, 900, 901} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("Get(%d) missed", k)
		}
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the poisoned shard")
	}
}
