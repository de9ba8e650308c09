package pbist

import (
	"encoding/json"
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

// TestShardedObservability checks the scatter-gather layer's metrics:
// the split timing histogram fills on batched writes, the Bloom filter
// short-circuit counters fill on point misses, and Trace merges
// per-shard epoch traces tagged with their shard index.
func TestShardedObservability(t *testing.T) {
	reg := NewMetrics()
	base := make([]int64, 5000)
	vals := make([]uint64, len(base))
	for i := range base {
		base[i] = int64(i * 2) // even keys present
		vals[i] = uint64(i)
	}
	s := NewShardedFromItems[int64, uint64](ShardedOptions{
		ConcurrentOptions: ConcurrentOptions{
			Options:    Options{Metrics: reg, AssumeSorted: true},
			TraceDepth: 16,
		},
		Shards:      4,
		PointFilter: true,
	}, base, vals)
	defer s.Close()

	// Batched writes exercise the scatter; point misses exercise the
	// filters (odd keys were never inserted, so most short-circuit).
	// The batch rewrites present even keys with their own values, so
	// the odd keys stay absent.
	s.PutBatch(base[:2000], vals[:2000])
	shorts := 0
	for i := 0; i < 2000; i++ {
		if _, ok := s.Get(int64(2*i + 1)); ok {
			t.Fatalf("odd key %d unexpectedly present", 2*i+1)
		}
	}
	s.Flush()

	snap := reg.Snapshot()
	if sc := snap.Histograms["shard.scatter_ns"]; sc.Count <= 0 {
		t.Fatalf("shard.scatter_ns count = %d, want > 0", sc.Count)
	}
	if sh := snap.Counters["shard.filter.short_circuits"]; sh <= 0 {
		t.Fatalf("shard.filter.short_circuits = %d, want > 0 (2000 guaranteed misses)", sh)
	} else {
		shorts = int(sh)
	}
	if stats := s.Stats(); int64(shorts) != stats.FilterShortCircuits {
		t.Fatalf("registry shorts %d != Stats().FilterShortCircuits %d", shorts, stats.FilterShortCircuits)
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

	s := NewSharded[int64, uint64](ShardedOptions{Shards: 2})
	s.Put(1, 1)
	s.Flush()
	if tr := s.Trace(0); tr != nil {
		t.Fatalf("Sharded.Trace = %v without metrics, want nil", tr)
	}
	s.Close()
}
