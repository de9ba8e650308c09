package pbist

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentObservability drives a metrics-enabled Concurrent hard
// enough to exercise every layer of the pipeline — combining epochs,
// batched traversals, subtree rebuilds — and asserts the registry saw
// all of it: epoch and op counters, the client-observed latency
// histogram, rebuild events from the core, and epoch traces whose
// named phases decompose the combining loop.
func TestConcurrentObservability(t *testing.T) {
	reg := NewMetrics()
	c := NewConcurrent[int64, uint64](ConcurrentOptions{
		Options:    Options{Metrics: reg},
		TraceDepth: 64,
	})
	defer c.Close()

	// Concurrent single-key traffic (forms multi-op epochs) plus
	// batched churn (forces C-factor rebuilds inside the engine).
	const clients = 4
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := int64(g*1000 + i)
				c.Put(k, uint64(i))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	for round := 0; round < 8; round++ {
		keys := make([]int64, 4000)
		vals := make([]uint64, len(keys))
		for i := range keys {
			keys[i] = int64(round*100 + i*7)
			vals[i] = uint64(i)
		}
		c.PutBatch(keys, vals)
	}
	c.Flush()

	snap := reg.Snapshot()
	if snap.Counters["combine.epochs"] <= 0 {
		t.Fatalf("combine.epochs = %d, want > 0", snap.Counters["combine.epochs"])
	}
	if ops := snap.Counters["combine.ops"]; ops <= 0 {
		t.Fatalf("combine.ops = %d, want > 0", ops)
	}
	lat, ok := snap.Histograms["combine.op_latency_ns"]
	if !ok || lat.Count != snap.Counters["combine.ops"] {
		t.Fatalf("op_latency count = %+v, want one sample per op (%d)", lat, snap.Counters["combine.ops"])
	}
	if lat.P50 <= 0 || lat.P999 < lat.P50 {
		t.Fatalf("latency quantiles implausible: p50=%d p999=%d", lat.P50, lat.P999)
	}
	if snap.Counters["core.rebuild.count"] <= 0 {
		t.Fatalf("core.rebuild.count = %d after churn, want > 0", snap.Counters["core.rebuild.count"])
	}
	if d := snap.Histograms["core.rebuild.duration_ns"]; d.Count != snap.Counters["core.rebuild.count"] {
		t.Fatalf("rebuild duration samples %d != rebuild count %d", d.Count, snap.Counters["core.rebuild.count"])
	}

	traces := c.Trace(0)
	if len(traces) == 0 {
		t.Fatal("Trace returned no epochs with Metrics and TraceDepth set")
	}
	for _, tr := range traces {
		if len(tr.Phases()) < 4 {
			t.Fatalf("epoch %d has %d phases, want >= 4", tr.Seq, len(tr.Phases()))
		}
		if tr.Ops <= 0 || tr.Wall < 0 {
			t.Fatalf("epoch %d implausible: %+v", tr.Seq, tr)
		}
	}

	// The snapshot must round-trip through JSON (the export contract
	// of pbench -latency and the expvar endpoint).
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded MetricsSnapshot
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counters["combine.epochs"] != snap.Counters["combine.epochs"] {
		t.Fatalf("JSON round trip lost combine.epochs")
	}
}

// TestConcurrentEpochRebuildKeys: every inline §7.1 rebuild shows in
// the trace of the epoch that ran it. Write-heavy churn on a small key
// span drives subtrees over their modification budget; the ring keeps
// every epoch of the run, so the traces' RebuildKeys must sum to
// exactly the keys the core.rebuild.keys counter saw over the run,
// and some epoch must report a rebuild.
func TestConcurrentEpochRebuildKeys(t *testing.T) {
	const goroutines, steps = 4, 2000
	reg := NewMetrics()
	c := NewConcurrent[int64, int64](ConcurrentOptions{
		Options: Options{Metrics: reg},
		// Every epoch carries at least one op (the final Flush
		// included), so the ring keeps every epoch of the run.
		TraceDepth: goroutines*steps + 1,
	})
	defer c.Close()
	before := reg.Snapshot().Counters["core.rebuild.keys"]

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < steps; i++ {
				k := int64(g<<10) + r.Int63n(1<<9)
				if r.Intn(3) == 0 {
					c.Delete(k)
				} else {
					c.Put(k, int64(i))
				}
			}
		}(g)
	}
	wg.Wait()
	c.Flush()

	traces := c.Trace(0)
	if epochs := c.Stats().Epochs; epochs > int64(len(traces)) {
		t.Fatalf("%d epochs ran but the trace ring kept %d", epochs, len(traces))
	}
	sum, maxKeys := 0, 0
	for _, tr := range traces {
		sum += tr.RebuildKeys
		maxKeys = max(maxKeys, tr.RebuildKeys)
	}
	if maxKeys == 0 {
		t.Fatal("no epoch reports a rebuild; churn too light for the test to mean anything")
	}
	if delta := reg.Snapshot().Counters["core.rebuild.keys"] - before; int64(sum) != delta {
		t.Fatalf("epoch traces sum to %d rebuild keys, core.rebuild.keys grew by %d", sum, delta)
	}
}

// TestShardedObservability checks the scatter-gather layer's metrics:
// the split timing histogram fills on batched writes, and Trace merges
// per-shard epoch traces tagged with their shard index.
func TestShardedObservability(t *testing.T) {
	reg := NewMetrics()
	base := make([]int64, 5000)
	vals := make([]uint64, len(base))
	for i := range base {
		base[i] = int64(i * 2)
		vals[i] = uint64(i)
	}
	s := NewShardedFromItems[int64, uint64](ShardedOptions{
		ConcurrentOptions: ConcurrentOptions{
			Options:    Options{Metrics: reg, AssumeSorted: true},
			TraceDepth: 16,
		},
		Shards: 4,
	}, base, vals)
	defer s.Close()

	// Batched writes exercise the scatter.
	s.PutBatch(base[:2000], vals[:2000])
	s.Flush()

	if sc := reg.Snapshot().Histograms["shard.scatter_ns"]; sc.Count <= 0 {
		t.Fatalf("shard.scatter_ns count = %d, want > 0", sc.Count)
	}

	traces := s.Trace(0)
	if len(traces) == 0 {
		t.Fatal("Sharded.Trace returned no epochs with Metrics set")
	}
	for _, tr := range traces {
		if tr.Shard < 0 || tr.Shard >= 4 {
			t.Fatalf("trace carries out-of-range shard %d", tr.Shard)
		}
	}
}

// TestTraceDisabledWithoutMetrics pins the zero-cost default: no
// Metrics, no TraceDepth — Trace must return nil on both frontends.
func TestTraceDisabledWithoutMetrics(t *testing.T) {
	c := NewConcurrent[int64, uint64](ConcurrentOptions{})
	c.Put(1, 1)
	c.Flush()
	if tr := c.Trace(0); tr != nil {
		t.Fatalf("Concurrent.Trace = %v without metrics, want nil", tr)
	}
	c.Close()

	s := NewShardedRange[int64, uint64](ShardedOptions{Shards: 2}, 0, 2)
	s.Put(1, 1)
	s.Flush()
	if tr := s.Trace(0); tr != nil {
		t.Fatalf("Sharded.Trace = %v without metrics, want nil", tr)
	}
	s.Close()
}
