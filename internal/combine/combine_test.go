package combine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/parallel"
)

// newCoreCombiner builds a Combiner over a real core engine and
// returns both. The test may read the engine only after a Flush, and
// only while no other operation is in flight: the combiner serves no
// reads.
func newCoreCombiner(t *testing.T, opts Options) (*Combiner[int64, uint64], *core.Tree[int64, uint64]) {
	t.Helper()
	pool := parallel.NewPool(4)
	eng := core.New[int64, uint64](core.Config{}, pool)
	c := New[int64, uint64](eng, pool, opts)
	t.Cleanup(c.Close)
	return c, eng
}

// queued reports how many operations are waiting in c's queue.
func queued(c *Combiner[int64, uint64]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// gatedEngine is a map-backed Engine whose write traversal blocks on
// a rendezvous, so tests can hold an epoch open while submissions
// queue behind it. Only the goroutine holding the combiner role calls
// it, so the plain map is safe.
type gatedEngine struct {
	m       map[int64]uint64
	entered chan struct{} // receives one token when a write traversal starts
	release chan struct{} // the traversal proceeds after a token arrives
}

func newGatedEngine() *gatedEngine {
	return &gatedEngine{
		m:       make(map[int64]uint64),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}, 16),
	}
}

func (e *gatedEngine) gate() {
	e.entered <- struct{}{}
	<-e.release
}

// ApplyResolved writes each key's presence before the epoch into found,
// as a core tree does, and panics, which poisons the combiner and
// fails every op of the epoch with ErrPoisoned, when a found it writes
// would disagree with the map before the epoch: a key repeated in the
// batch would read the write of its first occurrence. So would an
// unsorted batch, which the core engine's contract forbids as well.
func (e *gatedEngine) ApplyResolved(keys []int64, vals []uint64, live, found []bool) int {
	e.gate()
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic("gatedEngine: found would disagree with the map: batch not sorted and duplicate-free")
		}
		_, found[i] = e.m[k]
		if live[i] {
			e.m[k] = vals[i]
		} else {
			delete(e.m, k)
		}
	}
	return 0
}

func (e *gatedEngine) PublishVersion() {}

// TestSingleClientOracle drives one client through a long random
// mixed sequence and checks every result against a builtin map.
func TestSingleClientOracle(t *testing.T) {
	c, eng := newCoreCombiner(t, Options{})
	oracle := make(map[int64]uint64)
	r := dist.NewRNG(0xc0ffee)
	const keyspace = 512
	// get reads k from the engine once a Flush has drained every
	// earlier operation, and checks it against the oracle.
	get := func(step int, k int64) {
		t.Helper()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		wv, had := oracle[k]
		if v, ok := eng.Get(k); ok != had || (had && v != wv) {
			t.Fatalf("step %d: Get(%d)=%v,%v want %v,%v", step, k, v, ok, wv, had)
		}
	}
	for step := 0; step < 4000; step++ {
		k := r.Int63n(keyspace)
		switch r.Uint64n(5) {
		case 0: // Put
			v := r.Uint64()
			_, had := oracle[k]
			ins, err := c.Put(k, v)
			if err != nil || ins == had {
				t.Fatalf("step %d: Put(%d)=%v,%v want inserted=%v", step, k, ins, err, !had)
			}
			oracle[k] = v
		case 1: // Delete
			_, had := oracle[k]
			rm, err := c.Delete(k)
			if err != nil || rm != had {
				t.Fatalf("step %d: Delete(%d)=%v,%v want %v", step, k, rm, err, had)
			}
			delete(oracle, k)
		case 2: // Get
			get(step, k)
		case 3: // Delete then re-Put: both report the presence before them
			v, had := oracle[k]
			if rm, err := c.Delete(k); err != nil || rm != had {
				t.Fatalf("step %d: Delete(%d)=%v,%v want %v", step, k, rm, err, had)
			}
			if had {
				if ins, err := c.Put(k, v); err != nil || !ins {
					t.Fatalf("step %d: re-Put(%d)=%v,%v want inserted", step, k, ins, err)
				}
			}
		case 4: // mini-batch Put (unsorted, duplicated: last wins), read per key around it
			keys := []int64{k, (k + 37) % keyspace, k}
			vals := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
			for _, q := range keys {
				get(step, q)
			}
			want := 0
			for i, q := range keys {
				if _, had := oracle[q]; !had {
					want++
				}
				oracle[q] = vals[i]
			}
			ins, err := c.PutBatch(keys, vals)
			if err != nil || ins != want {
				t.Fatalf("step %d: PutBatch(%v)=%d,%v want inserted=%d", step, keys, ins, err, want)
			}
			for _, q := range keys {
				get(step, q)
			}
		}
	}
	// Final full-state comparison against the engine, read after a
	// Flush has drained every earlier operation.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	ks, vs := eng.Items()
	if len(ks) != len(oracle) {
		t.Fatalf("snapshot has %d keys, oracle %d", len(ks), len(oracle))
	}
	for i, k := range ks {
		if vs[i] != oracle[k] {
			t.Fatalf("snapshot[%d]=%d→%d, oracle %d", i, k, vs[i], oracle[k])
		}
	}
}

// TestMiniBatchSemantics pins the atomic mini-batch write contract:
// last-wins for duplicate keys in one PutBatch, per-op counts for
// duplicated input, an engine state after Flush that reflects the
// batch, and one epoch for a lone client's whole mini-batch.
func TestMiniBatchSemantics(t *testing.T) {
	c, eng := newCoreCombiner(t, Options{})
	ins, err := c.PutBatch([]int64{5, 5, 7}, []uint64{1, 2, 3})
	if err != nil || ins != 2 {
		t.Fatalf("PutBatch inserted %d, %v; want 2 (5 counts once, last value wins)", ins, err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	wantV := []uint64{3, 2, 0, 2}
	wantF := []bool{true, true, false, true}
	for i, k := range []int64{7, 5, 9, 5} {
		if v, ok := eng.Get(k); v != wantV[i] || ok != wantF[i] {
			t.Fatalf("Get(%d) = %v,%v want %v,%v", k, v, ok, wantV[i], wantF[i])
		}
	}
	for i, k := range []int64{9, 7, 9, 5} {
		if ok, want := eng.Contains(k), []bool{false, true, false, true}[i]; ok != want {
			t.Fatalf("Contains(%d) = %v want %v", k, ok, want)
		}
	}
	rm, err := c.DeleteBatch([]int64{5, 9, 5})
	if err != nil || rm != 1 {
		t.Fatalf("DeleteBatch removed %d, %v; want 1", rm, err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Len(); n != 1 {
		t.Fatalf("Len = %d; want 1", n)
	}
	if ks := eng.Keys(); !slices.Equal(ks, []int64{7}) {
		t.Fatalf("Keys = %v; want [7]", ks)
	}

	keys := make([]int64, 32)
	vals := make([]uint64, 32)
	for i := range keys {
		keys[i], vals[i] = int64(100+i), uint64(i)
	}
	before := c.Stats()
	if _, err := c.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if e, k := after.Epochs-before.Epochs, after.Keys-before.Keys; e != 1 || k != 32 {
		t.Fatalf("a 32-key PutBatch ran as %d epochs of %d keys, want 1 of 32", e, k)
	}
}

// TestCombinesConcurrentOps holds an epoch open inside the engine
// while ten clients queue up, then verifies all ten execute as one
// combined epoch with exact per-op results.
func TestCombinesConcurrentOps(t *testing.T) {
	eng := newGatedEngine()
	pool := parallel.NewPool(2)
	c := New[int64, uint64](eng, pool, Options{})
	defer c.Close()

	// Epoch 1: a lone Delete of an absent key enters the engine and
	// blocks there.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if rm, err := c.Delete(1); rm || err != nil {
			t.Errorf("Delete(1) = %v, %v", rm, err)
		}
	}()
	<-eng.entered

	// Ten distinct-key Puts pile up behind the open epoch.
	const n = 10
	var wg sync.WaitGroup
	insertCount := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			ins, err := c.Put(k, uint64(k)*10)
			if err != nil {
				t.Errorf("Put(%d): %v", k, err)
			}
			insertCount <- ins
		}(int64(100 + i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for queued(c) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d ops queued behind the open epoch", queued(c), n)
		}
		time.Sleep(100 * time.Microsecond)
	}

	eng.release <- struct{}{} // finish epoch 1
	<-eng.entered             // epoch 2 (the ten Puts) starts its write traversal
	eng.release <- struct{}{}
	wg.Wait()
	<-firstDone

	for i := 0; i < n; i++ {
		if !<-insertCount {
			t.Fatalf("a Put of a fresh key reported inserted=false")
		}
	}
	st := c.Stats()
	if st.Epochs != 2 || st.Ops != n+1 {
		t.Fatalf("stats = %d epochs / %d ops, want 2 / %d", st.Epochs, st.Ops, n+1)
	}
}

// TestInEpochOrdering gates the engine to force a Put and a Delete
// into one epoch, with deterministic per-key results because every key
// has a single writer.
func TestInEpochOrdering(t *testing.T) {
	eng := newGatedEngine()
	eng.m[7] = 70 // pre-existing key
	c := New[int64, uint64](eng, parallel.NewPool(2), Options{})
	defer c.Close()

	opener := make(chan struct{})
	go func() {
		defer close(opener)
		c.Delete(0)
	}()
	<-eng.entered

	var wg sync.WaitGroup
	results := struct {
		sync.Mutex
		insFresh, rmExisting bool
	}{}
	wg.Add(2)
	go func() { // single writer of fresh key 3: insert must report absent
		defer wg.Done()
		ins, err := c.Put(3, 33)
		results.Lock()
		results.insFresh = ins && err == nil
		results.Unlock()
	}()
	go func() { // single deleter of pre-existing key 7
		defer wg.Done()
		rm, err := c.Delete(7)
		results.Lock()
		results.rmExisting = rm && err == nil
		results.Unlock()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for queued(c) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ops did not queue behind the open epoch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	eng.release <- struct{}{}
	<-eng.entered
	eng.release <- struct{}{}
	wg.Wait()
	<-opener

	if !results.insFresh || !results.rmExisting {
		t.Fatalf("in-epoch results wrong: insFresh=%v rmExisting=%v", results.insFresh, results.rmExisting)
	}
	if _, ok := eng.m[7]; ok {
		t.Fatal("key 7 survived its delete")
	}
	if eng.m[3] != 33 {
		t.Fatalf("key 3 = %d, want 33", eng.m[3])
	}
}

// TestRacingWritersAgree checks the linearizability invariants that
// survive scheduling nondeterminism: among N racing Puts of one fresh
// key exactly one observes an insert, and among N racing Deletes of
// one present key exactly one observes a removal.
func TestRacingWritersAgree(t *testing.T) {
	c, _ := newCoreCombiner(t, Options{})
	const n = 64
	var wg sync.WaitGroup
	ins := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			ok, err := c.Put(42, v)
			if err != nil {
				t.Errorf("Put: %v", err)
			}
			ins <- ok
		}(uint64(i))
	}
	wg.Wait()
	count := 0
	for i := 0; i < n; i++ {
		if <-ins {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d of %d racing Puts reported inserted, want exactly 1", count, n)
	}

	rms := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := c.Delete(42)
			if err != nil {
				t.Errorf("Delete: %v", err)
			}
			rms <- ok
		}()
	}
	wg.Wait()
	count = 0
	for i := 0; i < n; i++ {
		if <-rms {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d of %d racing Deletes reported removed, want exactly 1", count, n)
	}
}

// TestCloseDrainsInFlight closes the combiner while an epoch is held
// open inside the engine and more operations are queued: the queued
// operations must complete, later submissions must fail.
func TestCloseDrainsInFlight(t *testing.T) {
	eng := newGatedEngine()
	c := New[int64, uint64](eng, parallel.NewPool(2), Options{})

	opener := make(chan struct{})
	go func() {
		defer close(opener)
		c.Delete(1)
	}()
	<-eng.entered

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			_, err := c.Put(k, 1)
			errs <- err
		}(int64(i + 10))
	}
	deadline := time.Now().Add(5 * time.Second)
	for queued(c) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ops did not queue behind the open epoch")
		}
		time.Sleep(100 * time.Microsecond)
	}

	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		c.Close()
	}()
	eng.release <- struct{}{} // let epoch 1 finish
	<-eng.entered             // drain epoch with the two queued Puts
	eng.release <- struct{}{}
	wg.Wait()
	<-opener
	<-closeDone

	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("in-flight op failed during Close: %v", err)
		}
	}
	if !c.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, err := c.Put(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Put error = %v, want ErrClosed", err)
	}
	if len(eng.m) != 2 {
		t.Fatalf("engine has %d keys after drain, want 2", len(eng.m))
	}
	c.Close() // idempotent
}

// TestCloseRacesSubmitters closes while many clients are mid-loop:
// every operation must either complete or report ErrClosed, and the
// call to Close must return.
func TestCloseRacesSubmitters(t *testing.T) {
	c, _ := newCoreCombiner(t, Options{})
	const clients = 32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for step := int64(0); ; step++ {
				_, err := c.Put(id*1000+step%100, uint64(step))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("unexpected error: %v", err)
					}
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(int64(i))
	}
	time.Sleep(2 * time.Millisecond)
	c.Close()
	close(stop)
	wg.Wait()
	st := c.Stats()
	if st.Ops == 0 {
		t.Fatal("no operations completed before Close")
	}
}

// TestNewStartsNoGoroutine checks that epochs run on the submitting
// clients: once a burst of concurrent writers has returned, the
// goroutine count is back where it was before New, with the combiner
// still open.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := core.New[int64, uint64](core.Config{}, nil)
	c := New[int64, uint64](eng, nil, Options{})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for k := int64(0); k < 50; k++ {
				if _, err := c.Put(id*100+k, uint64(k)); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(int64(i))
	}
	wg.Wait()
	// The writers' goroutines may still be exiting after Done.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after New and a burst of writes, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.Ops != 16*50 {
		t.Fatalf("served %d ops, want %d", st.Ops, 16*50)
	}
}

// TestHandoffDrainsQueue holds a leader's epoch open while ops queue
// behind it: the leader returns after its one epoch, the oldest queued
// op runs the next, and a Close issued meanwhile waits until the
// handoff chain has served every queued op.
func TestHandoffDrainsQueue(t *testing.T) {
	eng := newGatedEngine()
	c := New[int64, uint64](eng, nil, Options{})

	leader := make(chan struct{})
	go func() {
		defer close(leader)
		if _, err := c.Put(1, 1); err != nil {
			t.Errorf("leader Put: %v", err)
		}
	}()
	<-eng.entered

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	put := func(k int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Put(k, uint64(k))
			errs <- err
		}()
	}
	waitQueued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for queued(c) < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d ops queued behind the open epoch", queued(c), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	put(10)
	put(11)
	waitQueued(2)

	eng.release <- struct{}{} // the first leader's epoch ends
	<-leader                  // and it returns: one epoch per leader
	<-eng.entered             // a queued op leads the second epoch
	put(20)
	put(21)
	waitQueued(2)

	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		c.Close()
	}()
	for !c.Closed() {
		time.Sleep(100 * time.Microsecond)
	}
	eng.release <- struct{}{}
	<-eng.entered // the third epoch serves the ops queued before Close
	select {
	case <-closeDone:
		t.Fatal("Close returned while queued ops were still running")
	default:
	}
	eng.release <- struct{}{}
	wg.Wait()
	<-closeDone

	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued op failed: %v", err)
		}
	}
	if st := c.Stats(); st.Epochs != 3 || st.Ops != 5 {
		t.Fatalf("stats = %d epochs / %d ops, want 3 / 5", st.Epochs, st.Ops)
	}
	if len(eng.m) != 5 {
		t.Fatalf("engine has %d keys after drain, want 5", len(eng.m))
	}
	if _, err := c.Put(2, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Put error = %v, want ErrClosed", err)
	}
}

// TestFenceLinearizesAfterEpoch verifies Flush observes every
// operation submitted before it.
func TestFenceLinearizesAfterEpoch(t *testing.T) {
	c, eng := newCoreCombiner(t, Options{})
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(key int64) {
			defer wg.Done()
			c.Put(key, 1)
		}(int64(i))
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Len(); got != n {
		t.Fatalf("Len = %d; want %d", got, n)
	}
}
