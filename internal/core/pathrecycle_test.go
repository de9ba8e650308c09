package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Tests for path recycling (mvcc.go: owned, drainPaths, the root log
// behind spareRootCopy): a replaced path copy serves a later copy
// only once no pinned reader and no durable snapshot can reach it,
// and a spare root synced from the root log equals a fresh copy
// whatever happened to the root since the spare was live.

// hotChurn runs single-key epochs in a window of neighbouring keys of
// tr, each followed by PublishVersion, and keeps oracle in step: a
// present key is removed one time in three and otherwise updated, an
// absent one inserted.
type hotChurn struct {
	tr     *Tree[int64, int64]
	r      *rand.Rand
	hot    []int64
	oracle map[int64]int64
}

func newHotChurn(tr *Tree[int64, int64], hot []int64, seed int64) *hotChurn {
	k, v := tr.Items()
	oracle := make(map[int64]int64, len(k))
	for i, x := range k {
		oracle[x] = v[i]
	}
	return &hotChurn{tr: tr, r: rand.New(rand.NewSource(seed)), hot: hot, oracle: oracle}
}

func (h *hotChurn) epochs(n int) {
	for range n {
		k := h.hot[h.r.Intn(len(h.hot))] + int64(h.r.Intn(2))
		if _, live := h.oracle[k]; live && h.r.Intn(3) == 0 {
			h.tr.RemoveBatched([]int64{k})
			delete(h.oracle, k)
		} else {
			v := h.r.Int63()
			h.tr.PutBatched([]int64{k}, []int64{v})
			h.oracle[k] = v
		}
		h.tr.PublishVersion()
	}
}

// matches fails t unless ks/vs hold exactly the pairs of want.
func matches(t *testing.T, ks, vs []int64, want map[int64]int64, what string) {
	t.Helper()
	if len(ks) != len(want) {
		t.Fatalf("%s holds %d keys, want %d", what, len(ks), len(want))
	}
	for i, k := range ks {
		if w, ok := want[k]; !ok || vs[i] != w {
			t.Fatalf("%s: key %d reads %d, want %d (present %v)", what, k, vs[i], w, ok)
		}
	}
}

// TestPathRecycleImmutability: a pinned Version and a durable
// snapshot each keep reading what they were taken with across 300 hot
// epochs whose path copies are served from the free stacks. While the
// pin is held no replaced node is graced, so the stacks only drain;
// while only the snapshot is held recycling goes on, but never with a
// node the snapshot shares.
func TestPathRecycleImmutability(t *testing.T) {
	reg := obs.NewRegistry()
	const n = 1 << 14
	base := seqKeys(n, 0, 2)
	tr := NewFromSortedKV(Config{Metrics: reg}, nil, base, slices.Clone(base))
	tr.EnablePublish()
	h := newHotChurn(tr, base[n/2:n/2+256], 11)
	recycled := reg.Counter("core.mvcc.paths_recycled")
	h.epochs(1000)
	if recycled.Load() == 0 {
		t.Fatal("no path copy was served by a graced node during warm-up")
	}

	pin := tr.PinReader()
	v := tr.CurrentVersion()
	pinned := maps.Clone(h.oracle)
	h.epochs(300)
	gotK, gotV := tr.VersionItems(v)
	matches(t, gotK, gotV, pinned, "the pinned version")
	pin.Release()

	snap := tr.SnapshotNow()
	snapped := maps.Clone(h.oracle)
	before := recycled.Load()
	h.epochs(300)
	gotK, gotV = snap.Items()
	matches(t, gotK, gotV, snapped, "the snapshot")
	if recycled.Load() == before {
		t.Error("no path copy was served by a graced node while a snapshot was held")
	}
	gotK, gotV = tr.Items()
	matches(t, gotK, gotV, h.oracle, "the live tree")
	checkInvariants(t, tr)

	gauges := reg.Snapshot().Gauges
	free, grace := gauges["core.mvcc.free_nodes"], gauges["core.mvcc.grace_depth"]
	t.Logf("%d path copies recycled; %d nodes on the free stacks, %d entries in grace",
		recycled.Load(), free, grace)
	if free <= 0 || free > 2*nodeClasses*freeNodesCap {
		t.Errorf("free_nodes = %d, want within (0, %d]", free, 2*nodeClasses*freeNodesCap)
	}
	if grace > retireRingCap+spareRoots+pathQueueCap {
		t.Errorf("grace_depth = %d, above its bound %d", grace, retireRingCap+spareRoots+pathQueueCap)
	}
}

// TestRootLogSync checks spare roots synced from the root log against
// a model after every epoch, in the three cases the log cannot cover
// and must hand to the full diff: a root rebuilt at its old width, a
// parallel epoch at the root, and an epoch that writes more root
// slots than the log holds.
func TestRootLogSync(t *testing.T) {
	check := func(t *testing.T, h *hotChurn, what string) {
		t.Helper()
		gotK, gotV := h.tr.Items()
		matches(t, gotK, gotV, h.oracle, what)
		pin := h.tr.PinReader()
		gotK, gotV = h.tr.VersionItems(h.tr.CurrentVersion())
		pin.Release()
		matches(t, gotK, gotV, h.oracle, what+", published")
	}

	t.Run("same-width root rebuild", func(t *testing.T) {
		reg := obs.NewRegistry()
		base := seqKeys(1024, 0, 2)
		tr := NewFromSortedKV(Config{RebuildFactor: 1, Metrics: reg}, nil, base, slices.Clone(base))
		tr.EnablePublish()
		recycled := reg.Counter("core.mvcc.roots_recycled")
		h := newHotChurn(tr, nil, 13)
		// Insert fresh odd keys and remove them again, one per epoch,
		// so the size stays in [1024, 1088) and every root rebuild
		// keeps the root's width (33 children).
		var fresh []int64
		rebuilds := 0
		chunk, width := tr.root.chunk, len(tr.root.children)
		for e := 0; e < 6000; e++ {
			if len(fresh) < 32 && (len(fresh) == 0 || h.r.Intn(2) == 0) {
				k := 2*h.r.Int63n(1024) + 1
				if _, ok := h.oracle[k]; !ok {
					tr.PutBatched([]int64{k}, []int64{-k})
					h.oracle[k] = -k
					fresh = append(fresh, k)
				}
			} else {
				i := h.r.Intn(len(fresh))
				tr.RemoveBatched(fresh[i : i+1])
				delete(h.oracle, fresh[i])
				fresh = slices.Delete(fresh, i, i+1)
			}
			tr.PublishVersion()
			check(t, h, "the live tree")
			if tr.root.chunk == chunk {
				continue
			}
			if w := len(tr.root.children); w != width {
				t.Fatalf("epoch %d: a root rebuild changed the width %d -> %d", e, width, w)
			}
			chunk = tr.root.chunk
			rebuilds++
			// The spares in grace are the old root's copies, as wide as
			// the new root: the next copies must take them by diff.
			before := recycled.Load()
			for range 4 {
				k := base[h.r.Intn(len(base))]
				tr.PutBatched([]int64{k}, []int64{k + 1})
				h.oracle[k] = k + 1
				tr.PublishVersion()
				check(t, h, "the live tree after a root rebuild")
			}
			if recycled.Load() == before {
				t.Fatalf("epoch %d: no root copy reused a spare after the rebuild", e)
			}
		}
		t.Logf("%d root rebuilds at width %d; %d root copies reused a spare", rebuilds, width, recycled.Load())
		if rebuilds < 3 {
			t.Fatalf("%d same-width root rebuilds, want at least 3", rebuilds)
		}
		checkInvariants(t, tr)
	})

	t.Run("parallel and wide epochs", func(t *testing.T) {
		reg := obs.NewRegistry()
		const n = 1 << 14
		base := seqKeys(n, 0, 2)
		tr := NewFromSortedKV(Config{Metrics: reg}, parallel.NewPool(2), base, slices.Clone(base))
		tr.EnablePublish()
		h := newHotChurn(tr, base, 17)
		h.epochs(20)
		batch := func(m int) {
			keys := sortedBatch(h.r, m, 2*n)
			vals := make([]int64, m)
			for i, k := range keys {
				vals[i] = -k - 1
				h.oracle[k] = vals[i]
			}
			tr.PutBatched(keys, vals)
			tr.PublishVersion()
			check(t, h, "the live tree after the batch")
		}
		recycled := reg.Counter("core.mvcc.roots_recycled")
		for _, c := range []struct {
			name string
			m    int
		}{
			{"parallel", 1000},  // above seqSegCutoff: writePar at the root
			{"sequential", 400}, // writes more root slots than rootLogCap
		} {
			batch(c.m)
			before := recycled.Load()
			for e := range 40 {
				h.epochs(1)
				check(t, h, fmt.Sprintf("%s batch, then point epoch %d", c.name, e))
			}
			if recycled.Load() == before {
				t.Fatalf("no root copy reused a spare after the %s batch", c.name)
			}
		}
		checkInvariants(t, tr)
	})
}

// TestSizeClass: the capacity classes of the free stacks are
// contiguous and ascending, and the capacities within one class
// differ by less than a quarter, so a node of the class of a fresh
// copy's capacity is at most a quarter smaller than that copy.
func TestSizeClass(t *testing.T) {
	lo := map[int]int{} // class -> smallest capacity in it
	prev := 0
	for c := 1; c <= 1<<16; c++ {
		k := sizeClass(c)
		if k != prev && k != prev+1 {
			t.Fatalf("capacity %d is in class %d after class %d", c, k, prev)
		}
		if _, ok := lo[k]; !ok {
			lo[k] = c
		}
		if 4*c >= 5*lo[k] {
			t.Fatalf("class %d holds capacities %d and %d", k, lo[k], c)
		}
		prev = k
	}
	if k := sizeClass(1<<17 - 1); k != nodeClasses-1 {
		t.Fatalf("capacity 131071 is in class %d, want the last class %d", k, nodeClasses-1)
	}
}
