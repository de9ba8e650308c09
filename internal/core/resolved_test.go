package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestApplyResolvedMatchesFilteredWrites is the differential test of
// ApplyResolved and of the batched entry points that share its write
// walk. Each round draws a random batch and makes each key a Put or a
// Delete; a map model knows each key's presence before and after, and
// is the reference. One tree takes the whole batch in one
// ApplyResolved call, Deletes of absent keys included, and must report
// every key's presence before the write as the model has it. Its twin
// takes the same Puts through PutBatched and the same Deletes, absent
// keys included, through RemoveBatched, and both calls must return
// the model's insert and remove counts. After every round both trees
// must hold the model's items. On publishing trees every round also
// publishes, and at the end each published version of the two trees
// is read under one pin per tree, taken before the first publish, and
// compared with the model's items of that round.
//
// Besides the random keys, each round deletes keys that sit logically
// removed in inner reps of the ApplyResolved tree and keys that route
// to its nil children, and puts one more key into each such nil child
// when its range has room, so an empty child takes live and dead keys
// in one segment.
//
// The cases cover the sequential loop form (batches of at most 512
// keys on a 1-worker pool, and of at most seqSegCutoff+1 keys on a
// 2-worker pool, which walks a segment sequentially from the cutoff
// down) and the parallel one above it (larger batches on a 2-worker
// pool), with both traversal modes. RebuildFactor 1 makes rebuilds
// fire in every case; at LeafCap 4 they fire on small subtrees whose
// segments hold updates, inserts and removes together, and a subtree
// rebuilt in a batch whose rebuild of an ancestor follows (a nested
// rebuild) must occur.
func TestApplyResolvedMatchesFilteredWrites(t *testing.T) {
	for _, tc := range []struct {
		workers, maxBatch int
		traverse          TraverseMode
		leafCap           int
		publish           bool
	}{
		{1, 512, TraverseInterpolation, 0, false},
		{1, 512, TraverseInterpolation, 0, true},
		{2, 4096, TraverseInterpolation, 0, false},
		{2, 4096, TraverseInterpolation, 0, true},
		{2, seqSegCutoff + 1, TraverseInterpolation, 0, false},
		{2, seqSegCutoff + 1, TraverseInterpolation, 0, true},
		{2, 4096, TraverseRank, 0, false},
		{2, 4096, TraverseRank, 0, true},
		{2, 4096, TraverseInterpolation, 4, false},
		{2, 4096, TraverseInterpolation, 4, true},
	} {
		name := fmt.Sprintf("workers%d_batch%d", tc.workers, tc.maxBatch)
		if tc.traverse == TraverseRank {
			name += "_rank"
		}
		if tc.leafCap != 0 {
			name += fmt.Sprintf("_leafcap%d", tc.leafCap)
		}
		name += fmt.Sprintf("_publish%v", tc.publish)
		t.Run(name, func(t *testing.T) {
			const span, rounds = 1 << 15, 40
			r := rand.New(rand.NewSource(int64(tc.maxBatch) + int64(tc.workers)))
			reg := obs.NewRegistry()
			pool := parallel.NewPool(tc.workers)
			base := randomBatch(r, span/2, span)
			baseV := make([]int64, len(base))
			model := make(map[int64]int64, len(base))
			for i, k := range base {
				baseV[i] = r.Int63()
				model[k] = baseV[i]
			}
			cfg := Config{LeafCap: tc.leafCap, RebuildFactor: 1, Traverse: tc.traverse}
			twin := NewFromSortedKV(cfg, pool, base, baseV)
			cfg.Metrics = reg
			resolved := NewFromSortedKV(cfg, pool, base, baseV)
			startRebuilds := reg.Snapshot().Counters["core.rebuild.count"]

			var versions [][2]*Version[int64, int64]
			var pins [2]ReaderPin
			if tc.publish {
				resolved.EnablePublish()
				twin.EnablePublish()
				pins = [2]ReaderPin{resolved.PinReader(), twin.PinReader()}
				defer pins[0].Release()
				defer pins[1].Release()
			}
			var wantK [][]int64 // the model's keys after each published round
			var wantV [][]int64
			var removedDeletes, nilDeletes, nilPuts, nested int

			for round := 0; round < rounds; round++ {
				// op[k] is true for a Put: the random keys draw, the
				// probes of resolved's shape are forced.
				op := make(map[int64]bool)
				for _, k := range randomBatch(r, tc.maxBatch, span) {
					op[k] = r.Intn(2) == 0
				}
				removed, empty := absentProbes(resolved.root, span)
				for _, k := range removed[:min(len(removed), 8)] {
					op[k] = false
					removedDeletes++
				}
				for _, g := range empty[:min(len(empty), 8)] {
					op[g[0]] = false
					nilDeletes++
					if g[1] > g[0] {
						op[g[1]] = true
						nilPuts++
					}
				}
				keys := make([]int64, 0, len(op))
				for k := range op {
					keys = append(keys, k)
				}
				slices.Sort(keys)

				var putK, delK, resV []int64
				var putV []int64
				var had, live []bool
				var nIns, nRem int
				for _, k := range keys {
					_, h := model[k]
					had = append(had, h)
					if op[k] {
						v := r.Int63()
						putK, putV = append(putK, k), append(putV, v)
						resV, live = append(resV, v), append(live, true)
						if !h {
							nIns++
						}
						model[k] = v
						continue
					}
					delK = append(delK, k)
					resV, live = append(resV, 0), append(live, false)
					if h {
						nRem++
						delete(model, k)
					}
				}
				found := make([]bool, len(keys))
				for i := range found {
					found[i] = !had[i] // every entry must be overwritten
				}
				rebuilt := resolved.ApplyResolved(keys, resV, live, found)
				for i := range keys {
					if found[i] != had[i] {
						t.Fatalf("round %d: found[%d] (key %d) = %v, want %v", round, i, keys[i], found[i], had[i])
					}
				}
				if rebuilt > resolved.Len() {
					// Rebuilds of disjoint subtrees lay down at most the
					// live keys once; more means one rebuilt subtree was
					// inside another.
					nested++
				}
				if got := twin.PutBatched(putK, putV); got != nIns {
					t.Fatalf("round %d: PutBatched inserted %d, want %d", round, got, nIns)
				}
				if got := twin.RemoveBatched(delK); got != nRem {
					t.Fatalf("round %d: RemoveBatched removed %d, want %d", round, got, nRem)
				}

				mk, mv := modelItems(model)
				for _, tr := range []*Tree[int64, int64]{resolved, twin} {
					gk, gv := tr.Items()
					if tr.Len() != len(mk) || !slices.Equal(gk, mk) || !slices.Equal(gv, mv) {
						t.Fatalf("round %d: tree holds %d items (Len %d), model %d, or they differ",
							round, len(gk), tr.Len(), len(mk))
					}
				}
				if tc.publish {
					resolved.PublishVersion()
					twin.PublishVersion()
					versions = append(versions, [2]*Version[int64, int64]{
						resolved.CurrentVersion(), twin.CurrentVersion(),
					})
					wantK, wantV = append(wantK, mk), append(wantV, mv)
				}
			}
			t.Logf("deletes of removed inner slots %d, of nil-child keys %d; nil-child puts %d; nested rebuilds %d",
				removedDeletes, nilDeletes, nilPuts, nested)

			for i, vs := range versions {
				for j, tr := range []*Tree[int64, int64]{resolved, twin} {
					gk, gv := tr.VersionItems(vs[j])
					if vs[j].Len() != len(wantK[i]) || !slices.Equal(gk, wantK[i]) || !slices.Equal(gv, wantV[i]) {
						t.Fatalf("version %d of tree %d: %d items (Len %d), want %d, or they differ",
							i, j, len(gk), vs[j].Len(), len(wantK[i]))
					}
				}
			}
			if reg.Snapshot().Counters["core.rebuild.count"] == startRebuilds {
				t.Fatal("no rebuild fired; the case does not cover the rebuild paths")
			}
			if removedDeletes == 0 {
				t.Fatal("no delete hit a logically removed inner slot")
			}
			if tc.leafCap == 4 && (nilDeletes == 0 || nilPuts == 0 || nested == 0) {
				t.Fatal("the case does not cover nil children or nested rebuilds")
			}
		})
	}
}

// absentProbes walks subtree v and returns the keys that sit logically
// removed in inner reps, and for each nil child up to two absent keys
// of its range (the second equal to the first when the range holds
// one key). Keys lie in [0, span).
func absentProbes(v *node[int64, int64], span int64) (removed []int64, empty [][2]int64) {
	// walk visits v, whose keys lie in [lo, hi).
	var walk func(v *node[int64, int64], lo, hi int64)
	walk = func(v *node[int64, int64], lo, hi int64) {
		if v == nil || v.isLeaf() {
			return
		}
		for i, c := range v.children {
			if i < len(v.rep) && !v.exists[i] {
				removed = append(removed, v.rep[i])
			}
			clo, chi := lo, hi // child i holds (rep[i-1], rep[i])
			if i > 0 {
				clo = v.rep[i-1] + 1
			}
			if i < len(v.rep) {
				chi = v.rep[i]
			}
			if c != nil {
				walk(c, clo, chi)
				continue
			}
			if clo < chi {
				empty = append(empty, [2]int64{clo, min(clo+1, chi-1)})
			}
		}
	}
	walk(v, 0, span)
	return removed, empty
}

// modelItems returns the model's pairs in key order.
func modelItems(m map[int64]int64) ([]int64, []int64) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return keys, vals
}
