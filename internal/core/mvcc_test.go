package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// Tests for the multi-version layer (mvcc.go): publish gating,
// copy-on-write isolation of published versions, O(1) durable
// snapshots, chunk reclamation, and the allocation contract of the
// *Into read variants. Concurrency is exercised end to end in the
// pbist frontends; here the layer's semantics are pinned down
// single-goroutine, where every interleaving is explicit.

func sortedBatch(r *rand.Rand, n int, span int64) []int64 {
	set := make(map[int64]struct{}, n)
	for len(set) < n {
		set[r.Int63n(span)] = struct{}{}
	}
	out := make([]int64, 0, n)
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestPublishGating: mutations are invisible to the fast path until
// PublishVersion, then exactly visible.
func TestPublishGating(t *testing.T) {
	tr := New[int64, int64](Config{}, nil)
	tr.EnablePublish()
	if n := tr.SnapshotLen(); n != 0 {
		t.Fatalf("fresh published tree: SnapshotLen = %d, want 0", n)
	}
	tr.PutBatched([]int64{1, 2, 3}, []int64{10, 20, 30})
	if tr.SnapshotContains(2) {
		t.Fatal("unpublished insert visible to SnapshotContains")
	}
	if tr.Len() != 3 {
		t.Fatalf("live Len = %d, want 3", tr.Len())
	}
	tr.PublishVersion()
	if v, ok := tr.SnapshotGet(2); !ok || v != 20 {
		t.Fatalf("after publish: SnapshotGet(2) = (%d, %v), want (20, true)", v, ok)
	}
	if n := tr.SnapshotLen(); n != 3 {
		t.Fatalf("after publish: SnapshotLen = %d, want 3", n)
	}
	// Value overwrite alone must also republish (dirty tracking).
	tr.PutBatched([]int64{2}, []int64{99})
	tr.PublishVersion()
	if v, _ := tr.SnapshotGet(2); v != 99 {
		t.Fatalf("overwrite not republished: got %d, want 99", v)
	}
	// Removal too.
	tr.RemoveBatched([]int64{2})
	tr.PublishVersion()
	if tr.SnapshotContains(2) {
		t.Fatal("removed key still visible after publish")
	}
}

// TestVersionImmutability: a version handle taken at the fence keeps
// reading the state it was published with, across arbitrary later
// churn — including the rebuilds and chunk retirements that churn
// triggers. Both handle kinds are checked: a durable SnapshotNow tree
// and a pinned Version read through VersionItems/VersionRange/
// VersionGet.
func TestVersionImmutability(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	pool := parallel.NewPool(4)
	tr := New[int64, int64](Config{}, pool)
	tr.EnablePublish()

	keys := sortedBatch(r, 4000, 1<<20)
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = k * 3
	}
	tr.PutBatched(keys, vals)
	tr.PublishVersion()

	pin := tr.PinReader()
	defer pin.Release()
	ver := tr.CurrentVersion()
	snap := tr.SnapshotNow()
	oracleK := slices.Clone(keys)

	// Churn hard enough to rebuild most of the tree several times.
	for round := 0; round < 50; round++ {
		b := sortedBatch(r, 500, 1<<20)
		bv := make([]int64, len(b))
		for i := range bv {
			bv[i] = -int64(round)
		}
		tr.PutBatched(b, bv)
		tr.RemoveBatched(sortedBatch(r, 300, 1<<20))
		tr.PublishVersion()
	}

	gotK, gotV := snap.Items()
	if !slices.Equal(gotK, oracleK) {
		t.Fatalf("snapshot keys drifted: got %d keys, want %d", len(gotK), len(oracleK))
	}
	for i, k := range gotK {
		if gotV[i] != k*3 {
			t.Fatalf("snapshot value drifted at key %d: got %d, want %d", k, gotV[i], k*3)
		}
	}

	if vk, _ := tr.VersionItems(ver); !slices.Equal(vk, oracleK) {
		t.Fatalf("pinned version keys drifted: got %d keys, want %d", len(vk), len(oracleK))
	}
	i, j := len(oracleK)/4, 3*len(oracleK)/4
	rk, rv := tr.VersionRange(ver, oracleK[i], oracleK[j])
	if !slices.Equal(rk, oracleK[i:j+1]) {
		t.Fatalf("VersionRange keys: got %d keys, want %d", len(rk), j-i+1)
	}
	for x, k := range rk {
		if rv[x] != k*3 {
			t.Fatalf("VersionRange value at key %d: got %d, want %d", k, rv[x], k*3)
		}
	}
	if rk, _ := tr.VersionRange(ver, oracleK[j], oracleK[i]); len(rk) != 0 {
		t.Fatalf("VersionRange over an inverted interval returned %d keys", len(rk))
	}
	for x, k := range oracleK {
		if v, ok := tr.VersionGet(ver, k); !ok || v != k*3 {
			t.Fatalf("VersionGet(%d) = %d,%v, want %d", k, v, ok, k*3)
		}
		// A key in the gap below a loaded key was never in this
		// version, whatever the churn inserted since.
		if x > 0 && k-oracleK[x-1] > 1 {
			if _, ok := tr.VersionGet(ver, k-1); ok {
				t.Fatalf("VersionGet(%d) found a key the version never held", k-1)
			}
		}
	}
	if _, ok := tr.VersionGet(nil, oracleK[0]); ok {
		t.Fatal("VersionGet on a nil version found a key")
	}
	// The batched traversal of the version agrees with the per-key
	// walks, over the loaded keys and the keys just below them.
	var probe []int64
	for x, k := range oracleK {
		if x == 0 || k-oracleK[x-1] > 1 {
			probe = append(probe, k-1)
		}
		probe = append(probe, k)
	}
	bv := make([]int64, len(probe))
	bf := make([]bool, len(probe))
	bc := make([]bool, len(probe))
	tr.VersionGetBatched(ver, probe, bv, bf)
	tr.VersionGetBatched(ver, probe, nil, bc)
	for x, k := range probe {
		v, ok := tr.VersionGet(ver, k)
		if bf[x] != ok || bc[x] != ok || bv[x] != v {
			t.Fatalf("VersionGetBatched(%d) = %d,%v (contains %v), VersionGet = %d,%v", k, bv[x], bf[x], bc[x], v, ok)
		}
	}
}

// TestSnapshotDetached: writes to a durable snapshot never leak into
// the live tree, and vice versa.
func TestSnapshotDetached(t *testing.T) {
	tr := New[int64, int64](Config{}, nil)
	tr.EnablePublish()
	keys := seqKeys(2000, 0, 2)
	vals := make([]int64, len(keys))
	tr.PutBatched(keys, vals)
	tr.PublishVersion()

	snap := tr.SnapshotNow()
	snap.PutBatched(seqKeys(500, 1, 4), make([]int64, 500))
	snap.RemoveBatched(seqKeys(100, 0, 2))

	if tr.Len() != 2000 {
		t.Fatalf("live tree mutated through snapshot: Len = %d, want 2000", tr.Len())
	}
	if tr.Contains(1) {
		t.Fatal("snapshot insert visible in live tree")
	}
	tr.PutBatched(seqKeys(300, 3, 8), make([]int64, 300))
	tr.PublishVersion()
	if snap.Len() != 2000+500-100 {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), 2000+500-100)
	}
	if snap.Contains(3) {
		t.Fatal("live insert visible in snapshot")
	}
}

// TestReclamationDrains: without outstanding snapshots or pins, the
// grace ring drains within two publishes of a retirement, and recycled
// chunk storage really does re-enter the scratch free lists.
func TestReclamationDrains(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New[int64, struct{}](Config{}, nil)
	tr.EnablePublish()
	for round := 0; round < 120; round++ {
		tr.InsertBatched(sortedBatch(r, 400, 1<<16))
		tr.RemoveBatched(sortedBatch(r, 350, 1<<16))
		tr.PublishVersion()
	}
	// Quiesce: idle publishes advance the era and drain the ring.
	tr.dirty = true // force two more version bumps
	tr.PublishVersion()
	tr.dirty = true
	tr.PublishVersion()
	tr.PublishVersion()
	if n := len(tr.mv.ring); n != 0 {
		t.Fatalf("grace ring not drained: %d entries pending", n)
	}
	if _, reuses := tr.ar.keys.Stats(); reuses == 0 {
		t.Fatal("no key-buffer reuse after chunked churn: recycling is not reaching the free lists")
	}
}

// TestSnapshotCutoffBlocksRecycling: chunks reachable from a durable
// snapshot must never re-enter the free lists, however much the live
// tree churns — the snapshot keeps reading valid data (checked against
// an oracle) because those chunks are dropped to the GC instead.
func TestSnapshotCutoffBlocksRecycling(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := New[int64, int64](Config{}, nil)
	tr.EnablePublish()
	keys := sortedBatch(r, 3000, 1<<18)
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = k + 7
	}
	tr.PutBatched(keys, vals)
	tr.PublishVersion()
	snap := tr.SnapshotNow()

	for round := 0; round < 200; round++ {
		tr.InsertBatched(sortedBatch(r, 200, 1<<18))
		tr.RemoveBatched(sortedBatch(r, 200, 1<<18))
		tr.PublishVersion()
	}
	for _, i := range []int{0, 1, len(keys) / 2, len(keys) - 1} {
		if v, ok := snap.Get(keys[i]); !ok || v != keys[i]+7 {
			t.Fatalf("snapshot read corrupted at key %d: (%d, %v)", keys[i], v, ok)
		}
	}
	if snap.Len() != len(keys) {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(keys))
	}
}

// TestMVCCDifferential: the fast path agrees with a map oracle at
// every fence, across random batched churn on every pool shape.
func TestMVCCDifferential(t *testing.T) {
	for name, pool := range corePools() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			tr := New[int64, int64](Config{}, pool)
			tr.EnablePublish()
			oracle := make(map[int64]int64)
			const span = 1 << 14
			for round := 0; round < 60; round++ {
				put := sortedBatch(r, 150, span)
				pv := make([]int64, len(put))
				for i := range pv {
					pv[i] = int64(round)<<20 | int64(i)
				}
				tr.PutBatched(put, pv)
				for i, k := range put {
					oracle[k] = pv[i]
				}
				del := sortedBatch(r, 100, span)
				tr.RemoveBatched(del)
				for _, k := range del {
					delete(oracle, k)
				}
				tr.PublishVersion()
				if got := tr.SnapshotLen(); got != len(oracle) {
					t.Fatalf("round %d: SnapshotLen = %d, oracle %d", round, got, len(oracle))
				}
				for i := 0; i < 200; i++ {
					k := r.Int63n(span)
					wantV, want := oracle[k]
					gotV, got := tr.SnapshotGet(k)
					if got != want || (got && gotV != wantV) {
						t.Fatalf("round %d key %d: fast path (%d, %v), oracle (%d, %v)",
							round, k, gotV, got, wantV, want)
					}
				}
			}
		})
	}
}

// TestIntoVariantsMatchAllocating: the *Into read variants agree with
// their allocating counterparts.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr := New[int64, int64](Config{}, nil)
	keys := sortedBatch(r, 5000, 1<<16)
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i)
	}
	tr.PutBatched(keys, vals)
	probe := sortedBatch(r, 2000, 1<<16)

	wantV, wantF := tr.GetBatched(probe)
	gotV := make([]int64, len(probe))
	gotF := make([]bool, len(probe))
	tr.GetBatchedInto(probe, gotV, gotF)
	if !slices.Equal(gotF, wantF) || !slices.Equal(gotV, wantV) {
		t.Fatal("GetBatchedInto disagrees with GetBatched")
	}

	wantC := tr.ContainsBatched(probe)
	gotC := make([]bool, len(probe))
	tr.ContainsBatchedInto(probe, gotC)
	if !slices.Equal(gotC, wantC) {
		t.Fatal("ContainsBatchedInto disagrees with ContainsBatched")
	}
}

// TestReadIntoAllocs is the satellite AllocsPerRun ceiling: warmed
// steady-state batched reads through the *Into variants must not
// allocate at all — destinations are caller-recycled and the traversal
// scratch comes from the arena.
func TestReadIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling is checked in the non-race run")
	}
	r := rand.New(rand.NewSource(3))
	tr := New[int64, int64](Config{}, nil)
	tr.PutBatched(seqKeys(20000, 0, 3), make([]int64, 20000))
	probe := sortedBatch(r, 1000, 60000)
	vals := make([]int64, len(probe))
	found := make([]bool, len(probe))
	res := make([]bool, len(probe))
	// Warm the walker pool and the arena.
	tr.GetBatchedInto(probe, vals, found)
	tr.ContainsBatchedInto(probe, res)

	if avg := testing.AllocsPerRun(20, func() {
		clear(vals)
		clear(found)
		tr.GetBatchedInto(probe, vals, found)
	}); avg > 0 {
		t.Fatalf("GetBatchedInto allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		clear(res)
		tr.ContainsBatchedInto(probe, res)
	}); avg > 0 {
		t.Fatalf("ContainsBatchedInto allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestFastReadAllocs: the wait-free point lookup is allocation-free.
func TestFastReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling is checked in the non-race run")
	}
	tr := New[int64, int64](Config{}, nil)
	tr.EnablePublish()
	tr.PutBatched(seqKeys(50000, 0, 2), make([]int64, 50000))
	tr.PublishVersion()
	var sink int64
	if avg := testing.AllocsPerRun(100, func() {
		v, _ := tr.SnapshotGet(31415)
		sink += v
	}); avg > 0 {
		t.Fatalf("SnapshotGet allocates %.1f/op, want 0", avg)
	}
	_ = sink
}

// TestNonPublishingTreesStayGenZero: trees that never EnablePublish
// must never copy a node — the whole layer is opt-in.
func TestNonPublishingTreesStayGenZero(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := New[int64, int64](Config{}, nil)
	for round := 0; round < 20; round++ {
		b := sortedBatch(r, 300, 1<<14)
		tr.PutBatched(b, make([]int64, len(b)))
		tr.RemoveBatched(sortedBatch(r, 200, 1<<14))
	}
	if tr.writeGen != 0 || tr.mv != nil {
		t.Fatalf("non-publishing tree grew MVCC state: writeGen=%d mv=%v", tr.writeGen, tr.mv)
	}
	var walk func(v *node[int64, int64])
	walk = func(v *node[int64, int64]) {
		if v == nil {
			return
		}
		if v.gen != 0 {
			t.Fatalf("node with gen %d in a never-published tree", v.gen)
		}
		for _, c := range v.children {
			walk(c)
		}
	}
	walk(tr.root)
}
