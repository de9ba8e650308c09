package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// schedMutation is one step of a deterministic churn script: a put
// batch or a remove batch, shared verbatim across scheduler configs by
// the differential tests.
type schedMutation struct {
	put  bool
	keys []int64
	vals []int64
}

// schedScript builds a write-heavy churn script: puts with a skewed
// reinsert rate plus periodic removes, sized so the root trips its
// rebuild budget several times over the run.
func schedScript(seed int64, steps, batch int) []schedMutation {
	r := rand.New(rand.NewSource(seed))
	script := make([]schedMutation, 0, steps)
	for i := 0; i < steps; i++ {
		keys := sortedUniqueKeys(r.Int63(), batch, 1<<16)
		if i%4 == 3 {
			script = append(script, schedMutation{keys: keys})
			continue
		}
		vals := make([]int64, len(keys))
		for j := range vals {
			vals[j] = r.Int63()
		}
		script = append(script, schedMutation{put: true, keys: keys, vals: vals})
	}
	return script
}

// applyScript runs script against tr. When epochs is true every step is
// bracketed the way the combiner brackets an epoch — BeginRebuildEpoch,
// mutate, PublishVersion, EndRebuildEpoch — and the per-epoch rebuild
// spend is asserted against budget (0 disables the assertion).
func applyScript(t *testing.T, tr *Tree[int64, int64], script []schedMutation, epochs bool, budget int) {
	t.Helper()
	for i, m := range script {
		if epochs {
			tr.BeginRebuildEpoch()
		}
		if m.put {
			tr.PutBatched(m.keys, m.vals)
		} else {
			tr.RemoveBatched(m.keys)
		}
		if epochs {
			tr.PublishVersion()
			spent, _ := tr.EndRebuildEpoch()
			if budget > 0 && spent > budget {
				t.Fatalf("step %d: epoch spent %d rebuild keys, budget %d", i, spent, budget)
			}
		}
	}
}

// TestRebuildBudgetStandaloneBatches: without epoch bracketing, every
// batched mutation is its own budget window — the spend after any batch
// never exceeds the cap, and deferred debt is tracked, not lost.
func TestRebuildBudgetStandaloneBatches(t *testing.T) {
	const budget = 512
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			tr := New[int64, int64](Config{RebuildBudgetPerEpoch: budget}, p)
			for i, m := range schedScript(11, 120, 512) {
				if m.put {
					tr.PutBatched(m.keys, m.vals)
				} else {
					tr.RemoveBatched(m.keys)
				}
				tr.sched.mu.Lock()
				spent := tr.sched.spent
				tr.sched.mu.Unlock()
				if spent > budget {
					t.Fatalf("batch %d: spent %d rebuild keys, budget %d", i, spent, budget)
				}
			}
			checkInvariants(t, tr)
			if tr.Stats().DeferredKeys == 0 {
				t.Fatal("write-heavy churn never deferred a rebuild; budget not exercised")
			}
		})
	}
}

// TestRebuildBudgetEpochCap: under combiner-style epoch bracketing the
// spend EndRebuildEpoch reports — write-traversal rebuilds plus the
// post-publish drain — respects the cap every epoch. This is the
// acceptance assertion behind the epoch traces.
func TestRebuildBudgetEpochCap(t *testing.T) {
	const budget = 1024
	t.Run("bounded-sync", func(t *testing.T) {
		tr := New[int64, int64](Config{RebuildBudgetPerEpoch: budget}, nil)
		tr.EnablePublish()
		applyScript(t, tr, schedScript(7, 200, 512), true, budget)
		checkInvariants(t, tr)
		if tr.Stats().DeferredKeys == 0 {
			t.Fatal("write-heavy churn never deferred a rebuild; budget not exercised")
		}
	})
}

// TestSchedDifferentialConvergence: one churn script applied under
// eager and bounded-sync scheduling converges to identical contents —
// scheduling moves rebuild work in time, never changes what the tree
// stores — and both pass the full invariant check.
func TestSchedDifferentialConvergence(t *testing.T) {
	script := schedScript(42, 160, 384)

	eager := New[int64, int64](Config{}, nil)
	eager.EnablePublish()
	applyScript(t, eager, script, true, 0)

	bounded := New[int64, int64](Config{RebuildBudgetPerEpoch: 256}, nil)
	bounded.EnablePublish()
	applyScript(t, bounded, script, true, 256)

	wantK, wantV := eager.Items()
	gotK, gotV := bounded.Items()
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatalf("bounded-sync diverged from eager: %d keys vs %d", len(gotK), len(wantK))
	}
	checkInvariants(t, bounded)
	checkInvariants(t, eager)
}

// TestDrainDebtWithSnapshotReaders races drainDebt's splices and the
// grace-ring retirements they cause against wait-free snapshot readers
// across many reclamation grace periods: readers pin versions, iterate
// durable snapshots, and must never observe a torn or recycled state.
// Run under -race this also checks that a splice publishes the rebuilt
// subtree safely.
func TestDrainDebtWithSnapshotReaders(t *testing.T) {
	// A bulk-built base keeps the root clear of debt for a while. Once
	// the root is indebted it tops the heap and, larger than the
	// budget, blocks every drain; from an empty tree that happens
	// before any drain can run.
	const budget = 128
	base := sortedUniqueKeys(5, 1<<13, 1<<16)
	tr := NewFromSortedKV[int64, int64](Config{RebuildBudgetPerEpoch: budget}, nil, base, base)
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
					k := snap.Keys()
					if !slices.IsSorted(k) {
						panic("snapshot keys unsorted")
					}
				}
			}
		}(int64(g) + 1)
	}

	// Small key span + small batches force heavy leaf churn and many
	// subtree retirements, cycling the grace ring while readers hold
	// pins. The epochs are bracketed as the combiner brackets them; an
	// epoch whose spend grows across EndRebuildEpoch drained debt, so
	// drainDebt spliced a rebuilt subtree in after the publish.
	drains := 0
	for i, m := range schedScript(99, 250, 128) {
		tr.BeginRebuildEpoch()
		if m.put {
			tr.PutBatched(m.keys, m.vals)
		} else {
			tr.RemoveBatched(m.keys)
		}
		tr.PublishVersion()
		tr.sched.mu.Lock()
		before := tr.sched.spent
		tr.sched.mu.Unlock()
		spent, _ := tr.EndRebuildEpoch()
		if spent > budget {
			t.Fatalf("step %d: epoch spent %d rebuild keys, budget %d", i, spent, budget)
		}
		if spent > before {
			drains++
		}
	}
	close(stop)
	wg.Wait()
	if drains == 0 {
		t.Fatal("no epoch drained debt; the splice path was not exercised")
	}
	checkInvariants(t, tr)
}
