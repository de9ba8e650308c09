package pbist

import "repro/internal/obs"

// Metrics is the observability registry the engine records into when
// Options.Metrics is set: named counters, gauges, and log-bucketed
// latency histograms with p50/p90/p99/p999 extraction, exported
// point-in-time via Snapshot / WriteJSON / PublishExpvar.
//
// One registry may be shared across any number of trees, frontends,
// and shards — metrics are named, and same-named handles aggregate.
// The metric catalog (combine.*, core.*, shard.*) is documented in
// ARCHITECTURE.md's Observability section.
//
// A nil *Metrics disables all recording at zero cost: the engine's hot
// paths hold nil metric handles whose methods are no-ops, a contract
// enforced by allocation regression tests and the pbistvet noalloc
// analyzer.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry ready to pass as
// Options.Metrics.
func NewMetrics() *Metrics {
	return obs.NewRegistry()
}

// MetricsSnapshot is one point-in-time export of a Metrics registry:
// a plain JSON-marshalable struct of counter totals, gauge levels
// (live gauge functions evaluated at snapshot time), and histogram
// summaries. Values are gathered metric-by-metric without stopping
// the engine, so a snapshot under load is internally consistent per
// metric but not linearized across metrics — the same contract as
// Stats on the sharded frontend.
type MetricsSnapshot = obs.Snapshot

// EpochTrace is the structured record of one combining epoch, returned
// by Sharded.Trace: start time, wall time, the
// gather wait its first operation paid, operation and key counts, and
// the named phase spans (sort, write, replay, publish) that tile
// the epoch's wall time.
type EpochTrace = obs.EpochTrace

// PhaseSpan is one named slice of an epoch's wall time; see
// EpochTrace.Phases.
type PhaseSpan = obs.PhaseSpan
