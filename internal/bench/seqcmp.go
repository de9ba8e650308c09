package bench

import (
	"repro/internal/core"
	"repro/internal/iseq"
	"repro/internal/rbtree"
	"repro/internal/skiplist"
)

// SeqCompareResult reproduces the in-text sequential comparison of §9:
// the time to answer M membership queries against an N-key set, for
// the batched IST restricted to one worker (the paper's "one process"
// number), the scalar sequential IST, and the classic O(log n)
// baselines (red-black tree standing in for std::set, plus a skip
// list).
type SeqCompareResult struct {
	N, M          int
	ISTBatchedMS  float64 // PB-IST ContainsBatched, 1 worker
	ISTScalarMS   float64 // sequential IST, one Contains per key
	RBTreeMS      float64 // red-black tree, one Contains per key
	SkipListMS    float64 // skip list, one Contains per key
	SpeedupVsRB   float64 // RBTreeMS / ISTBatchedMS (paper reports ≈2.6)
	SpeedupScalar float64 // RBTreeMS / ISTScalarMS
}

// seqConfig is the scalar IST's config for a comparison against a
// batched tree built from cfg. The leaf capacity is resolved here, so
// both trees run the same H even where the two packages' defaults
// differ.
func seqConfig(cfg core.Config) iseq.Config {
	h := cfg.LeafCap
	if h <= 0 {
		h = core.DefaultLeafCap
	}
	return iseq.Config{
		LeafCap:         h,
		RebuildFactor:   cfg.RebuildFactor,
		IndexSizeFactor: cfg.IndexSizeFactor,
	}
}

// RunSeqCompare runs the §9 sequential-throughput comparison,
// averaging reps repetitions with distinct query batches.
func RunSeqCompare(w Workload, cfg core.Config, reps int) SeqCompareResult {
	w = w.WithDefaults()
	base := w.BaseKeys()

	ist := core.NewFromSorted(cfg, nil, base) // nil pool: one worker
	seq := iseq.NewFromSorted(seqConfig(cfg), base)
	rb := rbtree.New[int64]()
	for _, k := range base {
		rb.Insert(k)
	}
	sl := skiplist.New[int64](w.Seed)
	for _, k := range base {
		sl.Insert(k)
	}

	res := SeqCompareResult{N: len(base), M: w.M}
	res.ISTBatchedMS = meanMS(reps, func(rep int) func() {
		batch := w.Batch(rep)
		return func() { ist.ContainsBatched(batch) }
	})
	res.ISTScalarMS = meanMS(reps, func(rep int) func() {
		batch := w.Batch(rep)
		return func() {
			for _, k := range batch {
				seq.Contains(k)
			}
		}
	})
	res.RBTreeMS = meanMS(reps, func(rep int) func() {
		batch := w.Batch(rep)
		return func() {
			for _, k := range batch {
				rb.Contains(k)
			}
		}
	})
	res.SkipListMS = meanMS(reps, func(rep int) func() {
		batch := w.Batch(rep)
		return func() {
			for _, k := range batch {
				sl.Contains(k)
			}
		}
	})
	res.SpeedupVsRB = safeRatio(res.RBTreeMS, res.ISTBatchedMS)
	res.SpeedupScalar = safeRatio(res.RBTreeMS, res.ISTScalarMS)
	return res
}
