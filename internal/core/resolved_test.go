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
// ApplyResolved. Each round draws a random batch and makes each key a
// Put or a Delete. A model resolves each key's presence before and
// after: Puts of live keys are updates, Puts of absent keys inserts,
// Deletes of live keys removals, and Deletes of absent keys are
// dropped. One tree takes the whole mixed batch in one ApplyResolved
// call; its twin takes the same Puts and Deletes through PutBatched +
// RemoveBatched, which resolve presence themselves. After every round
// both must hold the model's items. On publishing trees every round
// also publishes, and at the end each published version of the two
// trees is read under one pin per tree, taken before the first
// publish, and compared.
//
// The cases cover the sequential loop form (batches of at most 512
// keys on a 1-worker pool, and of at most seqSegCutoff+1 keys on a
// 2-worker pool, which walks a segment sequentially from the cutoff
// down) and the parallel one above it (larger batches on a 2-worker
// pool), with both traversal modes. RebuildFactor 1 makes rebuilds
// fire in every case; at LeafCap 4 they fire on small subtrees whose
// segments hold updates, inserts and removes together.
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
			filtered := NewFromSortedKV(cfg, pool, base, baseV)
			cfg.Metrics = reg
			resolved := NewFromSortedKV(cfg, pool, base, baseV)
			startRebuilds := reg.Snapshot().Counters["core.rebuild.count"]

			var versions [][2]*Version[int64, int64]
			var pins [2]ReaderPin
			if tc.publish {
				resolved.EnablePublish()
				filtered.EnablePublish()
				pins = [2]ReaderPin{resolved.PinReader(), filtered.PinReader()}
				defer pins[0].Release()
				defer pins[1].Release()
			}
			var wantK [][]int64 // the model's keys after each published round
			var wantV [][]int64

			for round := 0; round < rounds; round++ {
				keys := randomBatch(r, tc.maxBatch, span)
				var putK, delK, resK []int64
				var putV, resV []int64
				var found, live []bool
				var nIns, nRem int
				for _, k := range keys {
					_, had := model[k]
					if r.Intn(2) == 0 {
						v := r.Int63()
						putK, putV = append(putK, k), append(putV, v)
						resK, resV = append(resK, k), append(resV, v)
						found, live = append(found, had), append(live, true)
						if !had {
							nIns++
						}
						model[k] = v
						continue
					}
					delK = append(delK, k)
					if had {
						resK, resV = append(resK, k), append(resV, 0)
						found, live = append(found, true), append(live, false)
						nRem++
						delete(model, k)
					}
				}
				resolved.ApplyResolved(resK, resV, found, live)
				if got := filtered.PutBatched(putK, putV); got != nIns {
					t.Fatalf("round %d: PutBatched inserted %d, want %d", round, got, nIns)
				}
				if got := filtered.RemoveBatched(delK); got != nRem {
					t.Fatalf("round %d: RemoveBatched removed %d, want %d", round, got, nRem)
				}

				mk, mv := modelItems(model)
				for _, tr := range []*Tree[int64, int64]{resolved, filtered} {
					gk, gv := tr.Items()
					if tr.Len() != len(mk) || !slices.Equal(gk, mk) || !slices.Equal(gv, mv) {
						t.Fatalf("round %d: tree holds %d items (Len %d), model %d, or they differ",
							round, len(gk), tr.Len(), len(mk))
					}
				}
				if tc.publish {
					resolved.PublishVersion()
					filtered.PublishVersion()
					versions = append(versions, [2]*Version[int64, int64]{
						resolved.CurrentVersion(), filtered.CurrentVersion(),
					})
					wantK, wantV = append(wantK, mk), append(wantV, mv)
				}
			}

			for i, vs := range versions {
				for j, tr := range []*Tree[int64, int64]{resolved, filtered} {
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
		})
	}
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
