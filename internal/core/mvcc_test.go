package core

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
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
	if n := tr.CurrentVersion().Len(); n != 0 {
		t.Fatalf("fresh published tree: version Len = %d, want 0", n)
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
	if n := tr.CurrentVersion().Len(); n != 3 {
		t.Fatalf("after publish: version Len = %d, want 3", n)
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

// TestAllMissBatchPublishesNothing: a batch in which no key writes
// leaves the root in place, so the next PublishVersion publishes
// nothing, at the sizes walked sequentially (512 keys) and in parallel
// (513 and 4096 keys on 2 workers). The parallel walk copies the root
// before it knows, from a graced spare root, and must hand the spare
// back when it drops the copy. A batch of the same size that only
// updates values writes, and must publish.
func TestAllMissBatchPublishesNothing(t *testing.T) {
	const n = 1 << 16
	keys := make([]int64, n) // the even keys; odd keys are absent
	for i := range keys {
		keys[i] = 2 * int64(i)
	}
	tr := NewFromSortedKV(Config{}, parallel.NewPool(2), keys, make([]int64, n))
	tr.EnablePublish()
	for i := range 2 * spareRoots {
		tr.PutBatched(keys[i:i+1], []int64{1}) // fill the spare FIFO
		tr.PublishVersion()
	}
	for _, m := range []int{512, 513, 4096} {
		absent := make([]int64, m)
		for i := range absent {
			absent[i] = keys[i*(n/m)] + 1
		}
		seq := tr.CurrentVersion().Seq()
		spares := len(tr.mv.spares)
		if spares == 0 || tr.mv.spares[0].stamp+2 > tr.mv.era.Load() {
			t.Fatalf("%d keys: no graced spare root before the batch", m)
		}
		if got := tr.RemoveBatched(absent); got != 0 {
			t.Fatalf("%d keys: removing absent keys removed %d", m, got)
		}
		if got := len(tr.mv.spares); got != spares {
			t.Fatalf("%d keys: a batch of absent keys left %d spare roots of %d", m, got, spares)
		}
		tr.PublishVersion()
		if got := tr.CurrentVersion().Seq(); got != seq {
			t.Fatalf("%d keys: a batch of absent keys published version %d over %d", m, got, seq)
		}
	}
	upd := make([]int64, 4096)
	for i := range upd {
		upd[i] = keys[i*(n/len(upd))]
	}
	vals := make([]int64, len(upd))
	for i := range vals {
		vals[i] = int64(i) + 1
	}
	seq := tr.CurrentVersion().Seq()
	if got := tr.PutBatched(upd, vals); got != 0 {
		t.Fatalf("updating present keys inserted %d", got)
	}
	tr.PublishVersion()
	if got := tr.CurrentVersion().Seq(); got == seq {
		t.Fatalf("an all-update batch published nothing (version %d)", got)
	}
	for i, k := range upd {
		if v, ok := tr.SnapshotGet(k); !ok || v != vals[i] {
			t.Fatalf("after the update: SnapshotGet(%d) = %d,%v, want %d", k, v, ok, vals[i])
		}
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

// TestRebuildRetireWithSnapshotReaders races eager §7.1 rebuilds, and
// the grace-ring retirements of the subtrees they replace, against
// wait-free snapshot readers across many reclamation grace periods:
// readers pin versions, iterate durable snapshots, and must never
// observe a torn or recycled state. Run under -race this also checks
// that a rebuilt subtree reaches readers safely through the publish.
func TestRebuildRetireWithSnapshotReaders(t *testing.T) {
	reg := obs.NewRegistry()
	base := sortedUniqueKeys(5, 1<<13, 1<<16)
	tr := NewFromSortedKV[int64, int64](Config{Metrics: reg}, nil, base, base)
	tr.EnablePublish()
	tr.PublishVersion()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r.Intn(3) {
				case 0:
					tr.SnapshotContains(r.Int63n(1 << 14))
				case 1:
					if v, ok := tr.SnapshotGet(r.Int63n(1 << 14)); ok && v < 0 {
						panic("negative value from snapshot")
					}
				default:
					snap := tr.SnapshotNow()
					if !slices.IsSorted(snap.Keys()) {
						panic("snapshot keys unsorted")
					}
				}
			}
		}(int64(g) + 1)
	}

	// A small key span and small batches force heavy leaf churn and
	// many subtree rebuilds, cycling the grace ring while readers hold
	// pins; every fourth step removes, the others put.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 250; i++ {
		keys := sortedUniqueKeys(r.Int63(), 128, 1<<16)
		if i%4 == 3 {
			tr.RemoveBatched(keys)
		} else {
			vals := make([]int64, len(keys))
			for j := range vals {
				vals[j] = r.Int63()
			}
			tr.PutBatched(keys, vals)
		}
		tr.PublishVersion()
	}
	close(stop)
	wg.Wait()
	if n := reg.Snapshot().Counters["core.mvcc.chunks_retired"]; n == 0 {
		t.Fatal("no rebuild retired a chunk; the retirement path was not exercised")
	}
	checkInvariants(t, tr)
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
				if got := tr.CurrentVersion().Len(); got != len(oracle) {
					t.Fatalf("round %d: version Len = %d, oracle %d", round, got, len(oracle))
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

// TestVersionGetGroupDifferential: a grouped walk answers every key as
// VersionGet does, for groups of 0 to GroupSize keys whose versions
// mix an empty tree, a nil version, and several rounds of two churned
// publishing trees (one with tiny leaves, so paths are deep), and
// whose keys mix live, logically removed and never-inserted keys.
func TestVersionGetGroupDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const span = 1 << 13
	empty := New[int64, int64](Config{}, nil)
	empty.EnablePublish()
	vers := []*Version[int64, int64]{nil, empty.CurrentVersion()}
	var removed, nilKids int
	for _, cfg := range []Config{{}, {LeafCap: 4}} {
		tr := New[int64, int64](cfg, nil)
		tr.EnablePublish()
		// Held to the end of the test: no version loaded after it can
		// have its chunk storage recycled.
		pin := tr.PinReader()
		defer pin.Release()
		for round := 0; round < 12; round++ {
			put := sortedBatch(r, 400, span)
			pv := make([]int64, len(put))
			for i := range pv {
				pv[i] = int64(round)<<20 | int64(i)
			}
			tr.PutBatched(put, pv)
			tr.RemoveBatched(sortedBatch(r, 250, span))
			tr.PublishVersion()
			if round%3 == 2 {
				v := tr.CurrentVersion()
				vers = append(vers, v)
				removed += countNodes(v.root, func(v *node[int64, int64]) bool { return slices.Contains(v.exists, false) })
				nilKids += countNodes(v.root, func(v *node[int64, int64]) bool { return slices.Contains(v.children, nil) })
			}
		}
	}
	if removed == 0 || nilKids == 0 {
		t.Fatalf("versions lack removed slots (%d nodes) or nil children (%d nodes)", removed, nilKids)
	}
	var (
		gv    [GroupSize]*Version[int64, int64]
		gk    [GroupSize]int64
		vals  [GroupSize]int64
		found [GroupSize]bool
		cont  [GroupSize]bool
	)
	for trial := 0; trial < 3000; trial++ {
		n := trial % (GroupSize + 1)
		for i := range n {
			gv[i] = vers[r.Intn(len(vers))]
			gk[i] = r.Int63n(span+64) - 32
			// Stale answers must be overwritten.
			vals[i], found[i], cont[i] = -1, true, true
		}
		VersionGetGroup(gv[:n], gk[:n], vals[:n], found[:n])
		VersionGetGroup(gv[:n], gk[:n], nil, cont[:n])
		for i := range n {
			wantV, want := empty.VersionGet(gv[i], gk[i])
			if found[i] != want || vals[i] != wantV || cont[i] != want {
				t.Fatalf("trial %d key %d of %d (%d): group (%d, %v, contains %v), VersionGet (%d, %v)",
					trial, i, n, gk[i], vals[i], found[i], cont[i], wantV, want)
			}
		}
	}
}

// countNodes counts the nodes of v's subtree that satisfy pred.
func countNodes(v *node[int64, int64], pred func(*node[int64, int64]) bool) int {
	if v == nil {
		return 0
	}
	c := 0
	if pred(v) {
		c++
	}
	for _, ch := range v.children {
		c += countNodes(ch, pred)
	}
	return c
}

// TestContainsBatchedAllocs is the AllocsPerRun ceiling of a warmed
// steady-state batched read: ContainsBatched allocates its result and
// nothing else, so the traversal's position buffers and walkers stay
// arena-backed.
func TestContainsBatchedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling is checked in the non-race run")
	}
	r := rand.New(rand.NewSource(3))
	tr := New[int64, int64](Config{}, nil)
	tr.PutBatched(seqKeys(20000, 0, 3), make([]int64, 20000))
	tr.EnablePublish()
	probe := sortedBatch(r, 1000, 60000)
	tr.ContainsBatched(probe) // warm the walker pool and the arena

	if avg := testing.AllocsPerRun(20, func() {
		tr.ContainsBatched(probe)
	}); avg > 1 {
		t.Fatalf("ContainsBatched allocates %.1f/op in steady state, want 1 (its result)", avg)
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
		if v.gen != 0 || v.sharedSlots {
			t.Fatalf("node with gen %d (shared slots %v) in a never-published tree", v.gen, v.sharedSlots)
		}
		for _, c := range v.children {
			walk(c)
		}
	}
	walk(tr.root)
}

// TestInnerSlotCopyOnWrite: an inner path copy aliases the frozen
// node's vals/exists until its first slot write (owned/ownSlots), so
// a write at one node must never leak into a version published
// earlier, whether the written slot sits in the root's rep, in a
// middle-level rep or in a leaf. Single-key update, remove and revive
// epochs run on keys at each level, every version is kept under one
// pin, and at the end each reads exactly what it was published with.
// A final pair of wide epochs drives the parallel write paths over the
// same keys. RebuildFactor is large enough that no rebuild runs, so
// every write goes through the path copy.
func TestInnerSlotCopyOnWrite(t *testing.T) {
	reg := obs.NewRegistry()
	base := seqKeys(1<<14, 0, 2)
	baseV := make([]int64, len(base))
	for i, k := range base {
		baseV[i] = k * 3
	}
	tr := NewFromSortedKV(Config{RebuildFactor: 1 << 20, Metrics: reg}, parallel.NewPool(2), base, baseV)
	tr.EnablePublish()
	pin := tr.PinReader()
	defer pin.Release()

	// Keys in the root's rep, in a middle-level rep and in leaves.
	root := tr.root
	mid := root.children[len(root.children)/2]
	if mid.isLeaf() {
		t.Fatal("tree too shallow: the root's children are leaves")
	}
	leaf := mid.children[0]
	for !leaf.isLeaf() {
		leaf = leaf.children[0]
	}
	var probe []int64
	for _, rep := range [][]int64{root.rep, mid.rep, leaf.rep} {
		probe = append(probe, rep[0], rep[len(rep)/2], rep[len(rep)-1])
	}

	oracle := make(map[int64]int64, len(base))
	for i, k := range base {
		oracle[k] = baseV[i]
	}
	type kept struct {
		ver  *Version[int64, int64]
		want map[int64]int64
	}
	versions := []kept{{tr.CurrentVersion(), maps.Clone(oracle)}}
	publish := func() {
		tr.PublishVersion()
		versions = append(versions, kept{tr.CurrentVersion(), maps.Clone(oracle)})
	}
	val := int64(-1)
	for _, k := range probe {
		val--
		tr.PutBatched([]int64{k}, []int64{val}) // update in place
		oracle[k] = val
		publish()
		tr.RemoveBatched([]int64{k})
		delete(oracle, k)
		publish()
		val--
		tr.PutBatched([]int64{k}, []int64{val}) // revive the removed slot
		oracle[k] = val
		publish()
	}
	// A leaf write leaves the root's slots shared with the version
	// before it; a root slot write gives the live root its own.
	prev := tr.CurrentVersion()
	tr.PutBatched([]int64{leaf.rep[1]}, []int64{7})
	oracle[leaf.rep[1]] = 7
	publish()
	if cur := tr.CurrentVersion(); &cur.root.vals[0] != &prev.root.vals[0] {
		t.Error("a leaf write copied the root's value slots")
	}
	prev = tr.CurrentVersion()
	tr.PutBatched([]int64{root.rep[1]}, []int64{9})
	oracle[root.rep[1]] = 9
	publish()
	if cur := tr.CurrentVersion(); &cur.root.vals[0] == &prev.root.vals[0] {
		t.Error("a root slot write did not copy the root's value slots")
	}

	// Wide epochs take the parallel paths: every probe key plus a
	// stripe of the base set, updated, removed, then revived.
	wide := slices.Clone(probe)
	for i := 0; i < len(base); i += 11 {
		wide = append(wide, base[i])
	}
	slices.Sort(wide)
	wide = slices.Compact(wide)
	wideV := make([]int64, len(wide))
	for i, k := range wide {
		wideV[i] = -k
		oracle[k] = -k
	}
	tr.PutBatched(wide, wideV)
	publish()
	tr.RemoveBatched(wide)
	for _, k := range wide {
		delete(oracle, k)
	}
	publish()
	for i, k := range wide {
		wideV[i] = k + 1
		oracle[k] = k + 1
	}
	tr.PutBatched(wide, wideV)
	publish()

	for x, kv := range versions {
		gotK, gotV := tr.VersionItems(kv.ver)
		if len(gotK) != len(kv.want) {
			t.Fatalf("version %d holds %d keys, published with %d", x, len(gotK), len(kv.want))
		}
		for i, k := range gotK {
			if w, ok := kv.want[k]; !ok || gotV[i] != w {
				t.Fatalf("version %d: key %d reads %d, published with %d (present %v)", x, k, gotV[i], w, ok)
			}
		}
		for _, k := range probe {
			w, wok := kv.want[k]
			if v, ok := tr.VersionGet(kv.ver, k); ok != wok || v != w {
				t.Fatalf("version %d: VersionGet(%d) = %d,%v, published with %d,%v", x, k, v, ok, w, wok)
			}
		}
	}
	gotK, gotV := tr.Items()
	if len(gotK) != len(oracle) {
		t.Fatalf("live tree holds %d keys, oracle %d", len(gotK), len(oracle))
	}
	for i, k := range gotK {
		if w, ok := oracle[k]; !ok || gotV[i] != w {
			t.Fatalf("live key %d reads %d, oracle %d (present %v)", k, gotV[i], w, ok)
		}
	}
	checkInvariants(t, tr)

	nodes := reg.Counter("core.mvcc.node_copies").Load()
	slots := reg.Counter("core.mvcc.slot_copies").Load()
	t.Logf("path copies: %d nodes, %d inner slot arrays", nodes, slots)
	if slots == 0 || slots >= nodes {
		t.Errorf("slot copies = %d, node copies = %d: want 0 < slots < nodes", slots, nodes)
	}
}

// TestRootRecycleGrace pins the grace rules of root recycling: a
// superseded root is reused as a later root copy only once no pinned
// reader and no durable snapshot can reach it, and only at the frozen
// root's width.
func TestRootRecycleGrace(t *testing.T) {
	// oneKeyEpoch runs one single-key epoch (update, insert or remove
	// against oracle) and publishes it.
	oneKeyEpoch := func(tr *Tree[int64, int64], r *rand.Rand, oracle map[int64]int64, span int64) {
		k := r.Int63n(span)
		if _, live := oracle[k]; live && r.Intn(3) == 0 {
			tr.RemoveBatched([]int64{k})
			delete(oracle, k)
		} else {
			v := r.Int63()
			tr.PutBatched([]int64{k}, []int64{v})
			oracle[k] = v
		}
		tr.PublishVersion()
	}
	newTree := func(cfg Config, n int) (*Tree[int64, int64], map[int64]int64) {
		base := seqKeys(n, 0, 2)
		oracle := make(map[int64]int64, n)
		for _, k := range base {
			oracle[k] = k
		}
		tr := NewFromSortedKV(cfg, nil, base, slices.Clone(base))
		tr.EnablePublish()
		return tr, oracle
	}
	matchOracle := func(t *testing.T, ks, vs []int64, oracle map[int64]int64, what string) {
		t.Helper()
		if len(ks) != len(oracle) {
			t.Fatalf("%s holds %d keys, oracle %d", what, len(ks), len(oracle))
		}
		for i, k := range ks {
			if w, ok := oracle[k]; !ok || vs[i] != w {
				t.Fatalf("%s: key %d reads %d, oracle %d (present %v)", what, k, vs[i], w, ok)
			}
		}
	}

	t.Run("pinned reader", func(t *testing.T) {
		reg := obs.NewRegistry()
		tr, oracle := newTree(Config{Metrics: reg}, 1<<14)
		recycled := reg.Counter("core.mvcc.roots_recycled")
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 2*spareRoots; i++ {
			oneKeyEpoch(tr, r, oracle, 1<<15) // fill the spare FIFO
		}
		pin := tr.PinReader()
		v0 := tr.CurrentVersion()
		children := slices.Clone(v0.root.children)
		gen := v0.root.gen
		wantK, wantV := tr.VersionItems(v0)
		for i := 0; i < 4*spareRoots; i++ {
			oneKeyEpoch(tr, r, oracle, 1<<15)
			if tr.root == v0.root {
				t.Fatalf("epoch %d reused the pinned version's root", i)
			}
		}
		if !slices.Equal(v0.root.children, children) || v0.root.gen != gen {
			t.Fatal("the pinned version's root was rewritten")
		}
		gotK, gotV := tr.VersionItems(v0)
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
			t.Fatal("the pinned version's contents changed")
		}
		pin.Release()
		before := recycled.Load()
		for i := 0; i < 2*spareRoots; i++ {
			oneKeyEpoch(tr, r, oracle, 1<<15)
		}
		if recycled.Load() == before {
			t.Fatal("no root copy reused a spare after the pin was released")
		}
		gotK, gotV = tr.Items()
		matchOracle(t, gotK, gotV, oracle, "live tree")
		checkInvariants(t, tr)
	})

	t.Run("durable snapshot", func(t *testing.T) {
		reg := obs.NewRegistry()
		tr, oracle := newTree(Config{Metrics: reg}, 1<<14)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			oneKeyEpoch(tr, r, oracle, 1<<15)
		}
		snap := tr.SnapshotNow()
		snapOracle := maps.Clone(oracle)
		for i := 0; i < 100; i++ {
			oneKeyEpoch(tr, r, oracle, 1<<15)
			if tr.root == snap.root {
				t.Fatalf("epoch %d reused the snapshot's root", i)
			}
		}
		gotK, gotV := snap.Items()
		matchOracle(t, gotK, gotV, snapOracle, "snapshot")
		gotK, gotV = tr.Items()
		matchOracle(t, gotK, gotV, oracle, "live tree")
		if reg.Counter("core.mvcc.roots_recycled").Load() == 0 {
			t.Fatal("no root copy reused a spare")
		}
	})

	t.Run("root rebuilds", func(t *testing.T) {
		reg := obs.NewRegistry()
		tr, oracle := newTree(Config{RebuildFactor: 1, Metrics: reg}, 64)
		r := rand.New(rand.NewSource(7))
		epochs, rebuilds, widths := 0, 0, 0
		chunk, width := tr.root.chunk, len(tr.root.children)
		check := func() {
			epochs++
			if c := tr.root.chunk; c != chunk {
				rebuilds++ // every copy carries the handle; a rebuild makes a new one
				chunk = c
			}
			if w := len(tr.root.children); w != width {
				widths++
				width = w
			}
			gotK, gotV := tr.Items()
			matchOracle(t, gotK, gotV, oracle, "live tree")
			k := r.Int63n(1 << 12)
			w, wok := oracle[k]
			if v, ok := tr.SnapshotGet(k); ok != wok || v != w {
				t.Fatalf("epoch %d: SnapshotGet(%d) = %d,%v, oracle %d,%v", epochs, k, v, ok, w, wok)
			}
		}
		// Grow, then shrink back one live key per epoch, three times:
		// the root is rebuilt wider on the way up and narrower on the
		// way down, so spares of the old width meet a new root.
		for cycle := 0; cycle < 3; cycle++ {
			for i := 0; i < 800; i++ {
				oneKeyEpoch(tr, r, oracle, 1<<12)
				check()
			}
			doomed := slices.Sorted(maps.Keys(oracle))
			r.Shuffle(len(doomed), func(a, b int) { doomed[a], doomed[b] = doomed[b], doomed[a] })
			for _, k := range doomed[:len(doomed)-64] {
				tr.RemoveBatched([]int64{k})
				delete(oracle, k)
				tr.PublishVersion()
				check()
			}
		}
		recycled := reg.Counter("core.mvcc.roots_recycled").Load()
		t.Logf("%d epochs, %d root rebuilds, %d of them changed its width; %d root copies reused a spare",
			epochs, rebuilds, widths, recycled)
		if rebuilds < 8 || widths < 6 {
			t.Fatalf("%d root rebuilds changed the width %d times, want at least 8 and 6", rebuilds, widths)
		}
		if recycled == 0 {
			t.Fatal("no root copy reused a spare")
		}
		checkInvariants(t, tr)
	})
}
