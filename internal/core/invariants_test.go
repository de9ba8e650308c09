package core

import (
	"slices"
	"testing"
)

// checkInvariants validates the structural invariants of the whole
// tree for any value type: rep sortedness and uniqueness, child key
// ranges, rep/vals/exists length agreement, size bookkeeping, the
// rebuild-counter budget, and Stats/Height consistency. It is the
// shared post-condition of the differential, cross-implementation, and
// set-algebra tests.
func checkInvariants[V any](t *testing.T, tr *Tree[int64, V]) {
	t.Helper()
	var walk func(v *node[int64, V], lo, hi *int64) int
	walk = func(v *node[int64, V], lo, hi *int64) int {
		if v == nil {
			return 0
		}
		if len(v.rep) == 0 {
			t.Fatalf("node with empty rep")
		}
		if len(v.exists) != len(v.rep) {
			t.Fatalf("exists/rep length mismatch: %d vs %d", len(v.exists), len(v.rep))
		}
		if len(v.vals) != len(v.rep) {
			t.Fatalf("vals/rep length mismatch: %d vs %d", len(v.vals), len(v.rep))
		}
		if !slices.IsSorted(v.rep) {
			t.Fatalf("rep not sorted")
		}
		for i := 1; i < len(v.rep); i++ {
			if v.rep[i] == v.rep[i-1] {
				t.Fatalf("duplicate rep key %d", v.rep[i])
			}
		}
		if lo != nil && v.rep[0] <= *lo {
			t.Fatalf("rep[0]=%d <= lower bound %d", v.rep[0], *lo)
		}
		if hi != nil && v.rep[len(v.rep)-1] >= *hi {
			t.Fatalf("rep max %d >= upper bound %d", v.rep[len(v.rep)-1], *hi)
		}
		// Rebuild accounting: modCnt only ever grows between rebuilds
		// and may never exceed the C·initSize budget — rebuildDue must
		// have fired first (§7.1).
		if v.modCnt < 0 || v.initSize < 0 {
			t.Fatalf("negative rebuild counters: modCnt=%d initSize=%d", v.modCnt, v.initSize)
		}
		budget := tr.cfg.RebuildFactor * v.initSize
		if budget < tr.cfg.RebuildFactor {
			budget = tr.cfg.RebuildFactor
		}
		if v.modCnt > budget {
			t.Fatalf("modCnt %d exceeds rebuild budget %d (initSize %d)", v.modCnt, budget, v.initSize)
		}
		live := 0
		for _, ok := range v.exists {
			if ok {
				live++
			}
		}
		if !v.isLeaf() {
			if len(v.children) != len(v.rep)+1 {
				t.Fatalf("children/rep length mismatch")
			}
			for i, c := range v.children {
				var clo, chi *int64
				if i > 0 {
					clo = &v.rep[i-1]
				} else {
					clo = lo
				}
				if i < len(v.rep) {
					chi = &v.rep[i]
				} else {
					chi = hi
				}
				live += walk(c, clo, chi)
			}
		}
		if v.size != live {
			t.Fatalf("size %d != live count %d", v.size, live)
		}
		return live
	}
	if got := walk(tr.root, nil, nil); got != tr.Len() {
		t.Fatalf("walked live count %d != Len %d", got, tr.Len())
	}
	s := tr.Stats()
	if s.LiveKeys != tr.Len() {
		t.Fatalf("Stats.LiveKeys %d != Len %d", s.LiveKeys, tr.Len())
	}
	if h := tr.Height(); h != s.Height {
		t.Fatalf("Height() %d != Stats.Height %d", h, s.Height)
	}
	if tr.Len() > 0 && s.Height < 1 {
		t.Fatalf("non-empty tree with height %d", s.Height)
	}
	if tr.Len() == 0 && tr.root != nil && s.DeadKeys == 0 {
		t.Fatalf("empty tree retains a root without dead keys")
	}
}
