package pbist_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/pbist"
)

// schedChurn hammers c with write-heavy churn over a small key span
// from several goroutines, returning the final expected contents (a
// merged per-goroutine oracle over disjoint stripes).
func schedChurn(t *testing.T, c *pbist.Concurrent[int64, int64], goroutines, steps int) map[int64]int64 {
	t.Helper()
	const stride = 1 << 10
	oracles := make([]map[int64]int64, goroutines)
	var wg sync.WaitGroup
	for id := 0; id < goroutines; id++ {
		oracles[id] = make(map[int64]int64)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			oracle := oracles[id]
			r := dist.NewRNG(0x5c4ed ^ uint64(id)*0x9e37)
			base := int64(id) * stride
			for step := 0; step < steps; step++ {
				k := base + r.Int63n(stride)
				if r.Uint64n(5) == 0 {
					c.Delete(k)
					delete(oracle, k)
				} else {
					v := int64(r.Uint64() >> 1)
					c.Put(k, v)
					oracle[k] = v
				}
			}
		}(id)
	}
	wg.Wait()
	merged := make(map[int64]int64)
	for _, o := range oracles {
		for k, v := range o {
			merged[k] = v
		}
	}
	return merged
}

func checkAgainstOracle(t *testing.T, c *pbist.Concurrent[int64, int64], oracle map[int64]int64) {
	t.Helper()
	keys, vals := c.Items()
	if len(keys) != len(oracle) {
		t.Fatalf("Items() has %d keys, oracle %d", len(keys), len(oracle))
	}
	if !slices.IsSorted(keys) {
		t.Fatal("Items() keys not sorted")
	}
	for i, k := range keys {
		if want, ok := oracle[k]; !ok || vals[i] != want {
			t.Fatalf("Items()[%d] = (%d, %d), oracle (%d, %v)", i, k, vals[i], want, ok)
		}
	}
}

// TestConcurrentRebuildBudgetTrace is the acceptance assertion at the
// frontend: with a rebuild budget set, no combining epoch spends more
// than the cap in rebuild keys — checked against the epoch traces the
// combiner records, every epoch of the run among them — and
// write-heavy churn actually exercises the deferral path (some epoch
// reports outstanding debt). A snapshot taken before Close must stay
// fully readable after it.
func TestConcurrentRebuildBudgetTrace(t *testing.T) {
	const budget = 256
	const goroutines, steps = 8, 4000
	t.Run("bounded-sync", func(t *testing.T) {
		c := pbist.NewConcurrent[int64, int64](pbist.ConcurrentOptions{
			Options: pbist.Options{RebuildBudgetPerEpoch: budget},
			// Every epoch carries at least one op (the final Flush
			// included), so the ring keeps every epoch of the run.
			TraceDepth: goroutines*steps + 1,
		})
		oracle := schedChurn(t, c, goroutines, steps)
		c.Flush()

		traces := c.Trace(0)
		if epochs := c.Stats().Epochs; epochs > int64(len(traces)) {
			t.Fatalf("%d epochs ran but the trace ring kept %d", epochs, len(traces))
		}
		sawSpend, sawDebt := false, false
		for _, tr := range traces {
			if tr.RebuildKeys > budget {
				t.Fatalf("epoch %d spent %d rebuild keys, budget %d", tr.Seq, tr.RebuildKeys, budget)
			}
			if tr.RebuildKeys > 0 {
				sawSpend = true
			}
			if tr.RebuildDebt > 0 {
				sawDebt = true
			}
		}
		if !sawSpend {
			t.Fatal("no epoch spent rebuild work; churn too light for the test to mean anything")
		}
		if !sawDebt {
			t.Fatal("no epoch reported rebuild debt; deferral path not exercised")
		}
		checkAgainstOracle(t, c, oracle)

		snap := c.Snapshot()
		c.Close()
		keys, vals := snap.Items()
		if !slices.IsSorted(keys) {
			t.Fatal("snapshot keys unsorted after Close")
		}
		if len(keys) != len(oracle) {
			t.Fatalf("snapshot has %d keys after Close, oracle %d", len(keys), len(oracle))
		}
		for i, k := range keys {
			if v, ok := snap.Get(k); !ok || v != vals[i] || v != oracle[k] {
				t.Fatalf("snapshot Get(%d) = %d,%v after Close, oracle %d", k, v, ok, oracle[k])
			}
		}
	})
}
