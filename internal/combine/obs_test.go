package combine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestEpochTracePhases is the trace-anatomy contract: every recorded
// epoch decomposes into at least four named phases whose durations sum
// to within 10% of the epoch's wall time. The phases are clock stamps
// at stage boundaries, so the sum should in fact tile the wall exactly
// up to clock granularity — the 10% bound is the acceptance criterion
// with margin for coarse clocks.
func TestEpochTracePhases(t *testing.T) {
	pool := parallel.NewPool(2)
	eng := core.New[int64, uint64](core.Config{}, pool)
	reg := obs.NewRegistry()
	c := New[int64, uint64](eng, pool, Options{Metrics: reg, TraceDepth: 32})
	defer c.Close()

	// Drive enough concurrent traffic to produce multi-op epochs.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				k := int64(g)*1000 + i
				if _, err := c.Put(k, uint64(k)); err != nil {
					t.Error(err)
					return
				}
				if rm, err := c.Delete(k); err != nil || !rm {
					t.Errorf("Delete(%d) = %v, %v; want removed", k, rm, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	traces := c.Trace(0)
	if len(traces) == 0 {
		t.Fatal("no epoch traces recorded")
	}
	for _, tr := range traces {
		phases := tr.Phases()
		if len(phases) < 4 {
			t.Fatalf("trace seq %d has %d phases, want >= 4", tr.Seq, len(phases))
		}
		var sum time.Duration
		for _, ph := range phases {
			if ph.Name == "" {
				t.Fatalf("trace seq %d has unnamed phase", tr.Seq)
			}
			if ph.Dur < 0 {
				t.Fatalf("trace seq %d phase %s has negative duration %v", tr.Seq, ph.Name, ph.Dur)
			}
			sum += ph.Dur
		}
		if tr.Wall <= 0 {
			t.Fatalf("trace seq %d wall = %v", tr.Seq, tr.Wall)
		}
		diff := sum - tr.Wall
		if diff < 0 {
			diff = -diff
		}
		if diff*10 > tr.Wall {
			t.Fatalf("trace seq %d: phases sum to %v, wall %v (diff > 10%%)", tr.Seq, sum, tr.Wall)
		}
		if tr.Ops <= 0 || tr.Keys < 0 {
			t.Fatalf("trace seq %d: ops %d keys %d", tr.Seq, tr.Ops, tr.Keys)
		}
		if tr.GatherWait < 0 {
			t.Fatalf("trace seq %d: gather wait %v", tr.Seq, tr.GatherWait)
		}
	}

	// The registry aggregated the same epochs the ring retained.
	s := reg.Snapshot()
	if s.Counters["combine.epochs"] == 0 {
		t.Fatal("combine.epochs counter not recorded")
	}
	if s.Histograms["combine.op_latency_ns"].Count == 0 {
		t.Fatal("op latency histogram empty")
	}
	if got, want := s.Counters["combine.ops"], s.Histograms["combine.op_latency_ns"].Count; got != want {
		t.Fatalf("combine.ops = %d but op latency samples = %d", got, want)
	}
}

// TestTraceDisabled: without Metrics or TraceDepth, Trace returns nil
// and nothing is recorded.
func TestTraceDisabled(t *testing.T) {
	pool := parallel.NewPool(1)
	eng := core.New[int64, uint64](core.Config{}, pool)
	c := New[int64, uint64](eng, pool, Options{})
	defer c.Close()
	if _, err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	if tr := c.Trace(0); tr != nil {
		t.Fatalf("unobserved combiner returned traces: %v", tr)
	}
}

// TestTraceWithoutRegistry: TraceDepth alone enables the ring.
func TestTraceWithoutRegistry(t *testing.T) {
	pool := parallel.NewPool(1)
	eng := core.New[int64, uint64](core.Config{}, pool)
	c := New[int64, uint64](eng, pool, Options{TraceDepth: 4})
	defer c.Close()
	for i := int64(0); i < 10; i++ {
		if _, err := c.Put(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	traces := c.Trace(0)
	if len(traces) == 0 {
		t.Fatal("no traces with TraceDepth set")
	}
	if len(traces) > 4 {
		t.Fatalf("ring retained %d traces, depth 4", len(traces))
	}
}

// TestRetainedArraysBounded checks the combine.scratch.* gauges, which
// report what the combiner's per-epoch arrays keep between epochs.
// Ordinary epochs keep their arrays, so the gauges read nonzero. An
// epoch larger than retainElems keys drops every array it
// grew past that bound. A second goroutine snapshots the registry
// while epochs run; under -race that checks the gauges never read the
// combiner's arrays themselves.
func TestRetainedArraysBounded(t *testing.T) {
	const bound = 8 * retainElems // eight arrays at the bound
	pool := parallel.NewPool(2)
	eng := core.New[int64, uint64](core.Config{}, pool)
	reg := obs.NewRegistry()
	c := New[int64, uint64](eng, pool, Options{Metrics: reg})
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	retained := func() (bufs, elems int64) {
		g := reg.Snapshot().Gauges
		return g["combine.scratch.retained_buffers"], g["combine.scratch.retained_elems"]
	}
	put := func(keys []int64) {
		t.Helper()
		if _, err := c.PutBatch(keys, make([]uint64, len(keys))); err != nil {
			t.Fatal(err)
		}
	}

	put([]int64{1, 2, 3})
	if bufs, elems := retained(); bufs == 0 || elems == 0 || elems > bound {
		t.Fatalf("after a small epoch: %d arrays of %d elements, want some, at most %d", bufs, elems, bound)
	}
	huge := make([]int64, 2*retainElems)
	for i := range huge {
		huge[i] = int64(i)
	}
	put(huge)
	if bufs, elems := retained(); elems > bound {
		t.Fatalf("after a %d-key epoch: %d arrays of %d elements, want at most %d", len(huge), bufs, elems, bound)
	}
	put([]int64{4})
	if bufs, elems := retained(); bufs == 0 || elems > bound {
		t.Fatalf("after the next small epoch: %d arrays of %d elements, want some, at most %d", bufs, elems, bound)
	}
}
