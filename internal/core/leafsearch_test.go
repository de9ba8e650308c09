package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// TestLeafSearchDifferential checks the separator-seeded leaf search
// of every point and batched read against a sorted-map oracle, on two
// publishing trees: one whose leaves grew past H = 64 through clustered
// inserts and removes, and one over exponentially spaced keys, where
// interpolation estimates land far from the target. Probes hit live
// and removed keys, miss between them, equal every inner separator and
// route to first and last children (one separator missing); grouped
// reads mix a version pinned before the churn with current ones.
func TestLeafSearchDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	// 4096 keys build as a 64-key root over leaves of 63 keys, so a
	// leaf can take 2·63 modifications before it is rebuilt: clustered
	// inserts grow it well past H.
	const n = 1 << 12
	for _, tc := range []struct {
		name string
		keys []int64
	}{
		{"grown", sortedBatch(r, n, 1<<22)},
		{"expspaced", dist.ExpSpaced(dist.NewRNG(38), n, 0, 1<<40)},
	} {
		for name, pool := range map[string]*parallel.Pool{"seq": nil, "w2": parallel.NewPool(2)} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				checkLeafSearchTree(t, rand.New(rand.NewSource(39)), pool, tc.keys)
			})
		}
	}
}

func checkLeafSearchTree(t *testing.T, r *rand.Rand, pool *parallel.Pool, keys []int64) {
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = -k
	}
	tr := NewFromSortedKV(Config{}, pool, keys, vals)
	tr.EnablePublish()
	pin := tr.PinReader()
	defer pin.Release()
	old := tr.CurrentVersion()
	oracle := make(map[int64]int64, len(keys))
	for i, k := range keys {
		oracle[k] = vals[i]
	}
	oldOracle := maps.Clone(oracle)

	// Clustered churn: each round puts the next free keys above one of
	// four hot keys and removes a run of live keys elsewhere.
	hot := []int64{keys[len(keys)/5], keys[len(keys)/3], keys[len(keys)/2], keys[len(keys)-100]}
	for round := 0; round < 40; round++ {
		var put []int64
		for k := hot[round%len(hot)] + 1; len(put) < 12; k++ {
			if _, in := oracle[k]; !in {
				put = append(put, k)
			}
		}
		pv := make([]int64, len(put))
		for i, k := range put {
			pv[i] = int64(round)<<40 | k&(1<<40-1)
			oracle[k] = pv[i]
		}
		tr.PutBatched(put, pv)
		live := slices.Sorted(maps.Keys(oracle))
		at := r.Intn(len(live) - 8)
		del := live[at : at+8 : at+8]
		tr.RemoveBatched(del)
		for _, k := range del {
			delete(oracle, k)
		}
		tr.PublishVersion()
	}
	cur := tr.CurrentVersion()

	// Probes: every key either version holds (live or removed), its
	// neighbours, the keys of first and last children, and every
	// inner separator.
	var probes []int64
	var maxLeaf, edgeKeys, separators int
	var walk func(v *node[int64, int64], edge bool)
	walk = func(v *node[int64, int64], edge bool) {
		if v == nil {
			return
		}
		for _, k := range v.rep {
			probes = append(probes, k-1, k, k+1)
		}
		if edge {
			edgeKeys += len(v.rep)
		}
		if v.isLeaf() {
			maxLeaf = max(maxLeaf, len(v.rep))
			return
		}
		separators += len(v.rep)
		for i, c := range v.children {
			walk(c, i == 0 || i == len(v.rep))
		}
	}
	walk(old.root, false)
	walk(cur.root, false)
	if maxLeaf <= DefaultLeafCap || edgeKeys == 0 || separators == 0 {
		t.Fatalf("tree shape: largest leaf %d keys (want > %d), %d keys in first/last children, %d separators",
			maxLeaf, DefaultLeafCap, edgeKeys, separators)
	}
	t.Logf("largest leaf %d keys, %d keys in first/last children, %d separators", maxLeaf, edgeKeys, separators)
	for range 2000 {
		probes = append(probes, r.Int63n(1<<41)-1<<20)
	}
	probes = slices.Compact(slices.Sorted(slices.Values(probes)))

	live := slices.Sorted(maps.Keys(oracle))
	for _, k := range probes {
		wantV, want := oracle[k]
		if gotV, got := tr.SnapshotGet(k); got != want || gotV != wantV {
			t.Fatalf("SnapshotGet(%d) = (%d, %v), oracle (%d, %v)", k, gotV, got, wantV, want)
		}
		rank, _ := slices.BinarySearch(live, k)
		if got := tr.RankOf(k); got != rank {
			t.Fatalf("RankOf(%d) = %d, oracle %d", k, got, rank)
		}
	}
	gotV, got := tr.GetBatched(probes)
	for i, k := range probes {
		wantV, want := oracle[k]
		if got[i] != want || gotV[i] != wantV {
			t.Fatalf("GetBatched key %d = (%d, %v), oracle (%d, %v)", k, gotV[i], got[i], wantV, want)
		}
	}

	var (
		gv    [GroupSize]*Version[int64, int64]
		gk    [GroupSize]int64
		gVals [GroupSize]int64
		found [GroupSize]bool
	)
	for at := 0; at < len(probes); at += GroupSize {
		n := min(GroupSize, len(probes)-at)
		for i := range n {
			gk[i] = probes[r.Intn(len(probes))]
			gv[i] = cur
			if r.Intn(2) == 0 {
				gv[i] = old
			}
		}
		VersionGetGroup(gv[:n], gk[:n], gVals[:n], found[:n])
		for i := range n {
			o := oracle
			if gv[i] == old {
				o = oldOracle
			}
			wantV, want := o[gk[i]]
			if found[i] != want || gVals[i] != wantV {
				t.Fatalf("VersionGetGroup key %d (pinned before churn: %v) = (%d, %v), oracle (%d, %v)",
					gk[i], gv[i] == old, gVals[i], found[i], wantV, want)
			}
		}
	}
}
