package pbist_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

// stressScale picks sizes for the differential stress tests: CI's
// -race -short pass keeps them quick, a full run goes wider.
func stressScale(t *testing.T) (clients, steps int) {
	t.Helper()
	if testing.Short() {
		return 100, 150
	}
	return 200, 600
}

// TestConcurrentDifferentialStress runs hundreds of client goroutines
// against one Concurrent, each owning a disjoint key stripe so every
// single result can be checked exactly against a per-client map
// oracle, while the combiner still coalesces ops from all clients
// into mixed read/write epochs. Finally the merged oracles must equal
// an atomic snapshot of the structure and every Range/Ascend window.
func TestConcurrentDifferentialStress(t *testing.T) {
	clients, steps := stressScale(t)
	const stride = 64
	c := pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
	defer c.Close()

	oracles := make([]map[int64]uint64, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		oracles[id] = make(map[int64]uint64)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			oracle := oracles[id]
			r := dist.NewRNG(0xd1f ^ uint64(id)*0x9e37)
			base := int64(id) * stride
			key := func() int64 { return base + r.Int63n(stride) }
			for step := 0; step < steps; step++ {
				switch r.Uint64n(8) {
				case 0, 1: // Put
					k, v := key(), r.Uint64()
					_, had := oracle[k]
					if ins := c.Put(k, v); ins == had {
						t.Errorf("client %d step %d: Put(%d) inserted=%v, oracle had=%v", id, step, k, ins, had)
						return
					}
					oracle[k] = v
				case 2: // Delete
					k := key()
					_, had := oracle[k]
					if rm := c.Delete(k); rm != had {
						t.Errorf("client %d step %d: Delete(%d)=%v, oracle %v", id, step, k, rm, had)
						return
					}
					delete(oracle, k)
				case 3, 4: // Get
					k := key()
					wv, had := oracle[k]
					v, ok := c.Get(k)
					if ok != had || (had && v != wv) {
						t.Errorf("client %d step %d: Get(%d)=%v,%v want %v,%v", id, step, k, v, ok, wv, had)
						return
					}
				case 5: // Contains
					k := key()
					_, had := oracle[k]
					if ok := c.Contains(k); ok != had {
						t.Errorf("client %d step %d: Contains(%d)=%v want %v", id, step, k, ok, had)
						return
					}
				case 6: // atomic PutBatch with a duplicated key (last wins)
					k1, k2 := key(), key()
					v1, v2, v3 := r.Uint64(), r.Uint64(), r.Uint64()
					c.PutBatch([]int64{k1, k2, k1}, []uint64{v1, v2, v3})
					oracle[k2] = v2 // k2 may equal k1; assign in input order
					oracle[k1] = v3
				case 7: // atomic GetBatch, unsorted possibly-duplicated input
					keys := []int64{key(), key(), key()}
					vals, found := c.GetBatch(keys)
					for i, k := range keys {
						wv, had := oracle[k]
						if found[i] != had || (had && vals[i] != wv) {
							t.Errorf("client %d step %d: GetBatch[%d](%d)=%v,%v want %v,%v",
								id, step, i, k, vals[i], found[i], wv, had)
							return
						}
					}
				}
			}
		}(id)
	}
	wg.Wait()

	merged := make(map[int64]uint64)
	for _, o := range oracles {
		for k, v := range o {
			merged[k] = v
		}
	}
	ks, vs := c.Items()
	if len(ks) != len(merged) {
		t.Fatalf("snapshot has %d keys, merged oracles %d", len(ks), len(merged))
	}
	if n := c.Len(); n != len(merged) {
		t.Fatalf("Len = %d, want %d", n, len(merged))
	}
	if !slices.IsSorted(ks) {
		t.Fatal("snapshot keys not sorted")
	}
	for i, k := range ks {
		if wv, ok := merged[k]; !ok || vs[i] != wv {
			t.Fatalf("snapshot[%d] = %d→%d, oracle %d (present=%v)", i, k, vs[i], wv, ok)
		}
	}
	// Windows: the whole span, ones crossing client stripes, a single
	// key, an inverted interval, and one past every key.
	span := int64(clients * stride)
	windows := [][2]int64{{0, span}, {stride / 2, 3*stride + 5}, {span / 3, span / 2}, {7, 7}, {span / 2, span / 3}, {span, 2 * span}}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		var want []int64
		for _, k := range ks {
			if lo <= k && k <= hi {
				want = append(want, k)
			}
		}
		rk, rv := c.Range(lo, hi)
		if !slices.Equal(rk, want) {
			t.Fatalf("Range(%d, %d) has %d keys, oracle %d", lo, hi, len(rk), len(want))
		}
		for i, k := range rk {
			if rv[i] != merged[k] {
				t.Fatalf("Range(%d, %d)[%d] = %d→%d, oracle %d", lo, hi, i, k, rv[i], merged[k])
			}
		}
		var ak []int64
		for k, v := range c.Ascend(lo, hi) {
			if v != merged[k] {
				t.Fatalf("Ascend(%d, %d) yielded %d→%d, oracle %d", lo, hi, k, v, merged[k])
			}
			ak = append(ak, k)
		}
		if !slices.Equal(ak, want) {
			t.Fatalf("Ascend(%d, %d) yielded %d keys, oracle %d", lo, hi, len(ak), len(want))
		}
	}
	yielded := 0
	for range c.Ascend(0, span) {
		if yielded++; yielded == 3 {
			break
		}
	}
	if want := min(3, len(ks)); yielded != want {
		t.Fatalf("Ascend stopped after %d pairs, want %d", yielded, want)
	}

	st := c.Stats()
	if st.Ops < int64(clients) {
		t.Fatalf("stats counted %d ops for %d clients", st.Ops, clients)
	}
	if st.Epochs == 0 || st.MeanOps < 1 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestConcurrentSharedKeys hammers a tiny shared key set from many
// writers and readers at once. Exact per-op answers are
// scheduling-dependent, so it checks the invariants that must hold in
// every linearization: any observed value was actually written by
// some writer for exactly that key, and the final value of each key
// is some writer's last write.
func TestConcurrentSharedKeys(t *testing.T) {
	clients, steps := stressScale(t)
	const keyspace = 16
	c := pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
	defer c.Close()

	encode := func(key int64, id, step int) uint64 {
		return uint64(key)<<32 | uint64(id)<<16 | uint64(step)
	}
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := dist.NewRNG(0x5a5a ^ uint64(id)*0xb47c)
			for step := 0; step < steps; step++ {
				k := r.Int63n(keyspace)
				switch r.Uint64n(4) {
				case 0:
					c.Put(k, encode(k, id, step))
				case 1:
					c.Delete(k)
				default:
					if v, ok := c.Get(k); ok {
						if int64(v>>32) != k || int(v>>16&0xffff) >= clients {
							t.Errorf("Get(%d) returned value %#x never written for that key", k, v)
							return
						}
					}
				}
			}
		}(id)
	}
	wg.Wait()
	ks, vs := c.Items()
	for i, k := range ks {
		if int64(vs[i]>>32) != k {
			t.Fatalf("final value %#x under key %d was written for key %d", vs[i], k, vs[i]>>32)
		}
	}
}

// TestConcurrentBatchAtomicity checks the property a one-shard
// frontend promises and a multi-shard Sharded does not: a batch is
// atomic. A writer keeps storing its round number under two keys with
// one PutBatch; readers alternate Items, Range, and GetBatch over both
// keys and fail if the two values (or their presence) ever differ.
func TestConcurrentBatchAtomicity(t *testing.T) {
	const keyA, keyB = 100, 900
	rounds := 2000
	if testing.Short() {
		rounds = 500
	}
	fill := make([]int64, 0, 100)
	for k := int64(0); k < 1000; k += 10 {
		fill = append(fill, k) // keyA, keyB, and keys around them
	}
	for _, tc := range []struct {
		name string
		open func() *pbist.Concurrent[int64, uint64]
	}{
		{"NewConcurrent", func() *pbist.Concurrent[int64, uint64] {
			return pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
		}},
		{"NewConcurrentFromItems", func() *pbist.Concurrent[int64, uint64] {
			return pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{}, fill, make([]uint64, len(fill)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.open()
			defer c.Close()
			// pick returns the values of keyA and keyB in a sorted
			// (keys, values) result.
			pick := func(ks []int64, vs []uint64) (a, b uint64, okA, okB bool) {
				if i, ok := slices.BinarySearch(ks, keyA); ok {
					a, okA = vs[i], true
				}
				if i, ok := slices.BinarySearch(ks, keyB); ok {
					b, okB = vs[i], true
				}
				return a, b, okA, okB
			}
			var done sync.WaitGroup
			stop := make(chan struct{})
			const readers = 4
			for id := 0; id < readers; id++ {
				done.Add(1)
				go func(id int) {
					defer done.Done()
					for i := id; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						var a, b uint64
						var okA, okB bool
						var how string
						switch i % 3 {
						case 0:
							how = "Items"
							a, b, okA, okB = pick(c.Items())
						case 1:
							how = "Range"
							a, b, okA, okB = pick(c.Range(keyA, keyB))
						case 2:
							how = "GetBatch"
							vals, found := c.GetBatch([]int64{keyA, keyB})
							a, b, okA, okB = vals[0], vals[1], found[0], found[1]
						}
						if okA != okB || a != b {
							t.Errorf("%s saw half a batch: key %d = %d (%v), key %d = %d (%v)",
								how, keyA, a, okA, keyB, b, okB)
							return
						}
					}
				}(id)
			}
			for r := 1; r <= rounds; r++ {
				c.PutBatch([]int64{keyA, keyB}, []uint64{uint64(r), uint64(r)})
			}
			close(stop)
			done.Wait()
			if vals, _ := c.GetBatch([]int64{keyA, keyB}); vals[0] != uint64(rounds) || vals[1] != uint64(rounds) {
				t.Fatalf("final values %v, want both %d", vals, rounds)
			}
		})
	}
}

// TestConcurrentCloseDuringInFlight closes the frontend while clients
// are submitting: every operation either completes or panics with the
// closed-frontend message, Close drains everything submitted before
// it, and later operations panic.
func TestConcurrentCloseDuringInFlight(t *testing.T) {
	c := pbist.NewConcurrent[int64, uint64](pbist.ConcurrentOptions{})
	const clients = 64
	var wg sync.WaitGroup
	var completed, closedPanics int64
	var mu sync.Mutex
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if r != "pbist: operation on closed frontend" {
						t.Errorf("unexpected panic: %v", r)
					}
					mu.Lock()
					closedPanics++
					mu.Unlock()
				}
			}()
			for step := int64(0); ; step++ {
				c.Put(id*1000+step%50, uint64(step))
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(int64(id))
	}
	time.Sleep(2 * time.Millisecond)
	c.Close()
	wg.Wait()

	if !c.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if completed == 0 {
		t.Fatal("no operation completed before Close")
	}
	if closedPanics == 0 {
		t.Fatal("no client observed the close (test raced nothing)")
	}
	// Reads answer from the final published version after Close; writes
	// panic.
	finalK, finalV := c.Snapshot().Items()
	for i, k := range finalK {
		if v, ok := c.Get(k); !ok || v != finalV[i] {
			t.Fatalf("post-Close Get(%d) = %d,%v, want %d", k, v, ok, finalV[i])
		}
		if !c.Contains(k) {
			t.Fatalf("post-Close Contains(%d) = false, want true", k)
		}
	}
	if _, ok := c.Get(-1); ok || c.Contains(-1) {
		t.Fatal("post-Close Get/Contains report a key never written")
	}
	func() {
		defer func() {
			if r := recover(); r != "pbist: operation on closed frontend" {
				t.Errorf("Put after Close: recovered %v, want the closed-frontend panic", r)
			}
		}()
		c.Put(1, 1)
	}()
	c.Close() // idempotent
}

// TestNewConcurrentFromItems checks bulk-loading and the read path of
// a pre-populated frontend, including last-wins on duplicated input.
func TestNewConcurrentFromItems(t *testing.T) {
	c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{},
		[]int64{30, 10, 20, 10}, []uint64{3, 1, 2, 11})
	defer c.Close()
	if n := c.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	if v, ok := c.Get(10); !ok || v != 11 {
		t.Fatalf("Get(10) = %d,%v want 11,true (last occurrence wins)", v, ok)
	}
	if got := c.Keys(); !slices.Equal(got, []int64{10, 20, 30}) {
		t.Fatalf("Keys = %v", got)
	}
	if ins := c.PutBatch([]int64{10, 40}, []uint64{100, 4}); ins != 1 {
		t.Fatalf("PutBatch inserted %d, want 1", ins)
	}
	if rm := c.DeleteBatch([]int64{20, 99}); rm != 1 {
		t.Fatalf("DeleteBatch removed %d, want 1", rm)
	}
	hits := c.ContainsBatch([]int64{10, 20, 40})
	if !slices.Equal(hits, []bool{true, false, true}) {
		t.Fatalf("ContainsBatch = %v", hits)
	}
	c.Flush()
	if st := c.Stats(); st.Ops == 0 || st.Epochs == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}
