package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// oracleQuantile is the nearest-rank quantile of a sorted sample set —
// the ground truth the histogram's bucketed answer is checked against.
func oracleQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quantile is Snapshot's nearest-rank rule at any q: h's bucket counts,
// captured, through nearestRank; 0 for an empty histogram.
func quantile(h *Histogram, q float64) int64 {
	var counts [numBuckets]int64
	var total int64
	for b := range h.counts {
		counts[b] = h.counts[b].Load()
		total += counts[b]
	}
	if total == 0 {
		return 0
	}
	return nearestRank(&counts, total, q)
}

// checkQuantiles asserts the histogram error contract against the
// oracle: the reported value is at least the true quantile and
// overshoots by at most one part in 2^subBits (plus one for rounding).
func checkQuantiles(t *testing.T, h *Histogram, samples []int64) {
	t.Helper()
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := oracleQuantile(sorted, q)
		got := quantile(h, q)
		if got < want {
			t.Fatalf("q=%v: got %d < oracle %d", q, got, want)
		}
		if maxErr := want + want>>subBits + 1; got > maxErr {
			t.Fatalf("q=%v: got %d > oracle %d + bound (%d)", q, got, want, maxErr)
		}
	}
}

func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	cases := map[string]func(i int) int64{
		"uniform-small": func(int) int64 { return int64(rng.IntN(subCount)) }, // all-exact range
		"uniform-wide":  func(int) int64 { return int64(rng.IntN(1 << 30)) },
		"exponential":   func(int) int64 { return int64(1) << rng.IntN(40) },
		"latency-like":  func(int) int64 { return 1000 + int64(rng.IntN(100_000)) },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram()
			samples := make([]int64, 10_000)
			for i := range samples {
				samples[i] = gen(i)
				h.Record(samples[i])
			}
			checkQuantiles(t, h, samples)
		})
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Monotonicity and round-trip bound across octave boundaries.
	edges := []int64{0, 1, 30, 31, 32, 33, 62, 63, 64, 65, 127, 128, 129,
		1<<20 - 1, 1 << 20, 1<<20 + 1, math.MaxInt64}
	prev := -1
	for _, v := range edges {
		b := bucketFor(v)
		if b < prev {
			t.Fatalf("bucketFor not monotone: bucketFor(%d)=%d < %d", v, b, prev)
		}
		prev = b
		bound := bucketBound(b)
		if bound < v || (v < math.MaxInt64>>1 && bound > v+v>>subBits+1) {
			t.Fatalf("bucketBound(bucketFor(%d)) = %d outside [v, v+v/32+1]", v, bound)
		}
		if v < subCount && bucketBound(b) != v {
			t.Fatalf("small value %d not exact: bound %d", v, bucketBound(b))
		}
	}

	// Single-valued distributions report exactly their bucket bound at
	// every quantile, and exactly the value itself below subCount.
	for _, v := range []int64{0, 7, 31, 32, 1000, 1 << 40} {
		h := NewHistogram()
		for i := 0; i < 100; i++ {
			h.Record(v)
		}
		want := bucketBound(bucketFor(v))
		for _, q := range []float64{0, 0.5, 0.999, 1} {
			if got := quantile(h, q); got != want {
				t.Fatalf("single-value %d q=%v: got %d want %d", v, q, got, want)
			}
		}
	}

	// Empty histogram.
	h := NewHistogram()
	if got := quantile(h, 0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 5000
	h := NewHistogram()
	c := &Counter{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < perG; i++ {
				h.Record(int64(rng.IntN(1 << 20)))
				c.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("snapshot count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, s.Count)
	}
}

func TestRecordCorrected(t *testing.T) {
	h := NewHistogram()
	// A 1000ns stall at a 100ns expected interval hides 9 queued
	// requests; the correction backfills them.
	h.RecordCorrected(1000, 100)
	if got := h.Count(); got != 10 {
		t.Fatalf("corrected count = %d, want 10", got)
	}
	if got := h.sum.Load(); got != 5500 {
		t.Fatalf("corrected sum = %d, want 5500", got)
	}
	// Below the interval no phantom samples exist.
	h2 := NewHistogram()
	h2.RecordCorrected(50, 100)
	if got := h2.Count(); got != 1 {
		t.Fatalf("uncorrected count = %d, want 1", got)
	}
}

// TestZeroAlloc is the nil-registry contract: every hot-path recording
// primitive — disabled (nil handle) or live — performs zero heap
// allocations.
func TestZeroAlloc(t *testing.T) {
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	var nilR *TraceRing
	liveC := &Counter{}
	liveG := &Gauge{}
	liveH := NewHistogram()
	liveR := NewTraceRing(8)
	t0 := time.Now()
	var tr EpochTrace
	checks := map[string]func(){
		"nil-counter":     func() { nilC.Add(1) },
		"nil-gauge":       func() { nilG.Set(1) },
		"nil-histogram":   func() { nilH.Record(42); nilH.RecordSince(t0) },
		"nil-ring":        func() { nilR.Push(&tr) },
		"live-counter":    func() { liveC.Add(1) },
		"live-gauge":      func() { liveG.Set(1); liveG.Add(1) },
		"live-histogram":  func() { liveH.Record(42); liveH.RecordSince(t0); liveH.RecordCorrected(300, 100) },
		"live-ring":       func() { tr.AddPhase("sort", 1); liveR.Push(&tr) },
		"nil-reg-lookups": func() { _ = (*Registry)(nil).Counter("x"); _ = (*Registry)(nil).Histogram("y") },
	}
	for name, f := range checks {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter lookup not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram lookup not idempotent")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(7)
	// Func chaining: two sources under one name sum; a stored gauge
	// under the same name joins the sum.
	r.Func("g", func() int64 { return 10 })
	r.Func("g", func() int64 { return 100 })
	r.Histogram("h").Record(5)

	s := r.Snapshot()
	if s.Counters["a"] != 3 {
		t.Fatalf("counter a = %d, want 3", s.Counters["a"])
	}
	if s.Gauges["g"] != 117 {
		t.Fatalf("gauge g = %d, want 117 (7 stored + 10 + 100 funcs)", s.Gauges["g"])
	}
	if s.Histograms["h"].Count != 1 || s.Histograms["h"].P50 != 5 {
		t.Fatalf("histogram h snapshot = %+v", s.Histograms["h"])
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if back.Counters["a"] != 3 || back.Gauges["g"] != 117 {
		t.Fatalf("JSON round trip lost values: %+v", back)
	}

	// Nil registry: nil handles, zero snapshot, no-op Func.
	var nilR *Registry
	if nilR.Counter("x") != nil || nilR.Gauge("x") != nil || nilR.Histogram("x") != nil {
		t.Fatal("nil registry returned live handles")
	}
	nilR.Func("x", func() int64 { return 1 })
	if s := nilR.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		tr := EpochTrace{Ops: i}
		tr.AddPhase("sort", time.Duration(i))
		r.Push(&tr)
		if tr.Seq != int64(i) {
			t.Fatalf("push %d assigned seq %d", i, tr.Seq)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", r.Len())
	}
	recent := r.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) returned %d traces, want 4", len(recent))
	}
	for i, tr := range recent {
		if want := 9 - i; tr.Ops != want || tr.Seq != int64(want) {
			t.Fatalf("recent[%d] = {Ops:%d Seq:%d}, want ops/seq %d", i, tr.Ops, tr.Seq, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].Ops != 9 {
		t.Fatalf("Recent(2) = %+v", got)
	}

	// Phase overflow drops silently past maxPhases.
	var tr EpochTrace
	for i := 0; i < maxPhases+3; i++ {
		tr.AddPhase("p", 1)
	}
	if len(tr.Phases()) != maxPhases {
		t.Fatalf("phases = %d, want %d", len(tr.Phases()), maxPhases)
	}

	// Nil ring is inert.
	var nilR *TraceRing
	nilR.Push(&tr)
	if nilR.Len() != 0 || nilR.Recent(5) != nil {
		t.Fatal("nil ring not inert")
	}
}
