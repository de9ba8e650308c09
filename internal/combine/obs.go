package combine

import (
	"time"

	"repro/internal/obs"
)

// probe bundles the metric handles one observed Combiner records into,
// resolved once at construction so epoch execution never takes the
// registry lock. A nil probe (the default) disables every recording
// site; a probe with a nil registry still fills the trace ring, so
// tracing works without metrics and vice versa.
//
// All names live under the "combine." prefix. Several combiners
// sharing one registry (the sharded frontend) resolve the same names
// and therefore aggregate into the same counters and histograms; only
// the trace ring is private per combiner, keyed by probe id.
type probe struct {
	id   int
	ring *obs.TraceRing

	epochs      *obs.Counter
	epochOps    *obs.Counter
	epochKeys   *obs.Counter
	sizeFlushes *obs.Counter

	opLatency  *obs.Histogram // client-observed: submit to wakeup, ns
	gatherWait *obs.Histogram // first op's queue wait per epoch, ns
	epochSize  *obs.Histogram // keys per epoch

	phaseSort    *obs.Histogram
	phaseRead    *obs.Histogram
	phaseReplay  *obs.Histogram
	phaseWrite   *obs.Histogram
	phaseRebuild *obs.Histogram
	phasePublish *obs.Histogram
}

// newProbe resolves the combiner metric handles. Returns nil — probing
// fully disabled — when neither a registry nor a trace depth is given.
func newProbe(r *obs.Registry, traceDepth, id int) *probe {
	if r == nil && traceDepth <= 0 {
		return nil
	}
	return &probe{
		id:           id,
		ring:         obs.NewTraceRing(traceDepth),
		epochs:       r.Counter("combine.epochs"),
		epochOps:     r.Counter("combine.ops"),
		epochKeys:    r.Counter("combine.keys"),
		sizeFlushes:  r.Counter("combine.size_flushes"),
		opLatency:    r.Histogram("combine.op_latency_ns"),
		gatherWait:   r.Histogram("combine.epoch.gather_wait_ns"),
		epochSize:    r.Histogram("combine.epoch.keys"),
		phaseSort:    r.Histogram("combine.epoch.sort_ns"),
		phaseRead:    r.Histogram("combine.epoch.read_ns"),
		phaseReplay:  r.Histogram("combine.epoch.replay_ns"),
		phaseWrite:   r.Histogram("combine.epoch.write_ns"),
		phaseRebuild: r.Histogram("combine.epoch.rebuild_ns"),
		phasePublish: r.Histogram("combine.epoch.publish_ns"),
	}
}

// record stores one finished epoch: the trace goes to the ring, the
// phase spans and sizes to the histograms. Called by the combiner
// goroutine only.
func (p *probe) record(tr *obs.EpochTrace) {
	p.ring.Push(tr)
	p.epochs.Add(1)
	p.epochOps.Add(int64(tr.Ops))
	p.epochKeys.Add(int64(tr.Keys))
	if tr.Sized {
		p.sizeFlushes.Add(1)
	}
	p.gatherWait.Record(int64(tr.GatherWait))
	p.epochSize.Record(int64(tr.Keys))
	for _, ph := range tr.Phases() {
		var h *obs.Histogram
		switch ph.Name {
		case "sort":
			h = p.phaseSort
		case "read":
			h = p.phaseRead
		case "replay":
			h = p.phaseReplay
		case "write":
			h = p.phaseWrite
		case "rebuild":
			h = p.phaseRebuild
		case "publish":
			h = p.phasePublish
		}
		h.Record(int64(ph.Dur))
	}
}

// Trace returns up to n recent epoch traces, newest first (n <= 0
// means all retained). It returns nil unless the combiner was built
// with Options.Metrics or Options.TraceDepth set. Safe to call from
// any goroutine, concurrently with in-flight operations: the ring is
// internally synchronized and the returned traces are copies.
func (c *Combiner[K, V]) Trace(n int) []obs.EpochTrace {
	if c.probe == nil {
		return nil
	}
	return c.probe.ring.Recent(n)
}

// observe registers the scratch arena's free-list telemetry with r as
// live gauges under "combine.scratch": retained buffer count and summed
// element capacity. Combiners sharing a registry sum their gauges under
// the same names.
func (s *scratch[K, V]) observe(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Func("combine.scratch.retained_buffers", func() int64 {
		b, _ := s.retained()
		return int64(b)
	})
	r.Func("combine.scratch.retained_elems", func() int64 {
		_, e := s.retained()
		return e
	})
}

// traceEpoch assembles and records the trace of the epoch that just
// ran. The phase stamps are the clock reads runEpoch took at each
// stage boundary, so the six spans tile [start, end] exactly: their
// sum equals Wall by construction, up to the clock's own granularity.
// The rebuild span covers the post-publish scheduler step (debt drain
// or background splice/kick); RebuildKeys and RebuildDebt carry what
// that step reported.
//
//pbist:combiner
func (c *Combiner[K, V]) traceEpoch(ops []*op[K, V], keyCount int, sized bool, rbSpent, rbDebt int, start, tSort, tRead, tReplay, tWrite, tSched, end time.Time) {
	pr := c.probe
	var tr obs.EpochTrace
	tr.Shard = pr.id
	tr.Start = start
	tr.Wall = end.Sub(start)
	tr.GatherWait = start.Sub(ops[0].enq)
	tr.Ops = len(ops)
	tr.Keys = keyCount
	tr.Sized = sized
	tr.RebuildKeys = rbSpent
	tr.RebuildDebt = rbDebt
	tr.AddPhase("sort", tSort.Sub(start))
	tr.AddPhase("read", tRead.Sub(tSort))
	tr.AddPhase("replay", tReplay.Sub(tRead))
	tr.AddPhase("write", tWrite.Sub(tReplay))
	tr.AddPhase("rebuild", tSched.Sub(tWrite))
	tr.AddPhase("publish", end.Sub(tSched))
	pr.record(&tr)
	// Client-observed latency: enqueue to wakeup. Recorded before the
	// done sends so no op is touched after its client may reuse it.
	for _, o := range ops {
		pr.opLatency.Record(int64(end.Sub(o.enq)))
	}
}
