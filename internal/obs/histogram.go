package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits sets the sub-bucket resolution of the log-bucketed
	// histogram: each power-of-two octave splits into 2^subBits
	// sub-buckets, bounding the relative error of any reported value
	// by 2^-subBits (~3.1% at subBits = 5). This is the HdrHistogram
	// layout at 1.5 significant decimal digits, sized so the whole
	// bucket array (~15 KiB) stays resident in L1/L2.
	subBits  = 5
	subCount = 1 << subBits

	// numBuckets covers every non-negative int64: values below
	// subCount map exactly to their own bucket, and each remaining
	// octave e in [0, 58) contributes subCount buckets.
	numBuckets = (64 - subBits + 1) * subCount
)

// Histogram is a concurrent log-bucketed value recorder for
// non-negative int64 samples (latencies in nanoseconds, batch sizes in
// keys). Recording is lock-free — one atomic add on the bucket plus
// count/sum/extrema updates — allocation-free, and safe on a nil
// receiver, so hot paths record unconditionally.
//
// Reported quantiles carry the bucket's upper bound, so they
// overestimate by at most 2^-subBits relative error and are exact for
// values below subCount and for single-valued distributions within one
// bucket.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
	counts [numBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketFor maps a non-negative value to its bucket index: values
// below subCount are their own bucket; larger values keep their top
// subBits+1 significand bits, giving subCount buckets per octave.
//
//pbist:noalloc
func bucketFor(v int64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return int((uint64(e)+1)<<subBits + uint64(v)>>uint(e) - subCount)
}

// bucketBound returns the largest value bucket b holds — the value
// quantile extraction reports for any sample that landed in b.
func bucketBound(b int) int64 {
	if b < subCount {
		return int64(b)
	}
	e := uint(b>>subBits) - 1
	m := int64(b&(subCount-1)) + subCount
	return (m+1)<<e - 1
}

// Record adds one sample. Negative samples clamp to zero (they arise
// only from clock steps between paired time.Now calls).
//
//pbist:noalloc
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordSince records the elapsed nanoseconds since t0.
//
//pbist:noalloc
func (h *Histogram) RecordSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Record(int64(time.Since(t0)))
}

// RecordCorrected records v and, when v exceeds expectedInterval,
// backfills the samples a coordinated-omission-free observer would
// have seen: one extra sample at v - expectedInterval, v - 2·interval,
// … down to the interval itself. This is the HdrHistogram correction —
// a stalled server delays not just the measured request but every
// request that would have been issued behind it, and omitting those
// phantom waits underreports tail latency. Use it when recording from
// a closed-loop driver; the open-loop pbench harness measures from
// scheduled start instead and records uncorrected.
//
//pbist:noalloc
func (h *Histogram) RecordCorrected(v, expectedInterval int64) {
	if h == nil {
		return
	}
	h.Record(v)
	if expectedInterval <= 0 {
		return
	}
	for v -= expectedInterval; v >= expectedInterval; v -= expectedInterval {
		h.Record(v)
	}
}

// nearestRank returns the value at quantile q in [0, 1] of captured
// bucket counts that sum to total > 0, by the nearest-rank convention:
// the upper bound of the bucket holding the rank (see the type comment
// for bounds).
func nearestRank(counts *[numBuckets]int64, total int64, q float64) int64 {
	rank := min(max(int64(math.Ceil(q*float64(total))), 1), total)
	b := 0
	for seen := counts[0]; seen < rank; seen += counts[b] {
		b++
	}
	return bucketBound(b)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistBucket is one occupied bucket of a histogram snapshot: Count
// samples were at most Le.
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is the JSON-marshalable point-in-time state of a
// histogram: totals, extrema, the standard latency quantiles, and the
// sparse occupied buckets for downstream re-aggregation.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	P999    int64        `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Under concurrent recording the
// totals and buckets may differ by in-flight samples; quantiles are
// computed from the captured buckets, so the snapshot is internally
// consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var counts [numBuckets]int64
	for b := range h.counts {
		counts[b] = h.counts[b].Load()
		s.Count += counts[b]
	}
	if s.Count == 0 {
		return s
	}
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.P50 = nearestRank(&counts, s.Count, 0.50)
	s.P90 = nearestRank(&counts, s.Count, 0.90)
	s.P99 = nearestRank(&counts, s.Count, 0.99)
	s.P999 = nearestRank(&counts, s.Count, 0.999)
	for b := range counts {
		if counts[b] > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Le: bucketBound(b), Count: counts[b]})
		}
	}
	return s
}
