package shard

import "repro/internal/obs"

// Obs bundles the metric handles a sharded frontend records into: how
// long write batches take to split into per-shard sub-batches, how
// often the per-shard Bloom filters short-circuit point lookups versus
// passing them through to a shard, and how often the cross-shard cut
// retries. All handles are nil-safe, so callers record unconditionally
// once an Obs exists; a nil *Obs is the fully disabled state.
type Obs struct {
	Scatter *obs.Histogram // ns to split one batch (Split/SplitPairs)
	// FilterShort counts point lookups answered "absent" by a filter
	// alone; FilterPass counts lookups the filter let through. Their
	// ratio is the short-circuit rate; Pass includes both true
	// positives and Bloom false positives.
	FilterShort *obs.Counter
	FilterPass  *obs.Counter
	// CutRetries counts re-collections of the cross-shard atomic cut:
	// a whole-structure or batched read observed some shard publish a
	// new version mid-collect and had to re-validate. Persistently high
	// values mean those reads are racing a sustained write storm.
	CutRetries *obs.Counter
}

// NewObs resolves the shard metric handles under the "shard." prefix;
// nil registry → nil Obs.
func NewObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	return &Obs{
		Scatter:     r.Histogram("shard.scatter_ns"),
		FilterShort: r.Counter("shard.filter.short_circuits"),
		FilterPass:  r.Counter("shard.filter.passes"),
		CutRetries:  r.Counter("shard.cut.retries"),
	}
}
