package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// coreObs bundles the rebuild metric handles of one observed tree,
// resolved once at construction so the write paths never touch the
// registry. nil (the default) disables every recording site. Trees
// sharing a registry — the shard group case — resolve the same names
// and aggregate automatically.
type coreObs struct {
	rebuilds    *obs.Counter   // subtree (re)build events
	rebuildKeys *obs.Counter   // keys laid down by those rebuilds
	rebuildNS   *obs.Histogram // per-event duration, ns
	rebuildSize *obs.Histogram // per-event subtree size, keys
}

// newCoreObs resolves the tree metric handles; nil registry → nil obs.
func newCoreObs(r *obs.Registry) *coreObs {
	if r == nil {
		return nil
	}
	return &coreObs{
		rebuilds:    r.Counter("core.rebuild.count"),
		rebuildKeys: r.Counter("core.rebuild.keys"),
		rebuildNS:   r.Histogram("core.rebuild.duration_ns"),
		rebuildSize: r.Histogram("core.rebuild.size_keys"),
	}
}

// obsNow stamps the start of an observed event: time.Now() when the
// tree records metrics, the zero Time otherwise — the same "stamp only
// when observed" discipline the inline rebuild paths follow, packaged
// for call sites outside this file (the scheduler's drain rebuilds).
func obsNow(o *coreObs) time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe registers the rebuild scheduler's counters as live gauges
// under the "core.rebuild." prefix. Func-backed gauges sum across
// registrations, so a shard group sharing one registry reads group
// totals, matching the arena and MVCC gauges.
func (c *schedCounters) observe(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Func("core.rebuild.debt_keys", c.debtKeys.Load)
	r.Func("core.rebuild.deferred_keys", c.deferredKeys.Load)
	r.Func("core.rebuild.async_count", c.asyncRuns.Load)
	r.Func("core.rebuild.splice_retries", c.spliceRetries.Load)
}

// recordRebuild stores one §7.1 rebuild event: a subtree of size keys
// rebuilt ideally in the time elapsed since t0. No-op on an unobserved
// tree — callers stamp t0 only when t.obs is set, so the hot path pays
// one nil check.
func (t *Tree[K, V]) recordRebuild(t0 time.Time, size int) {
	if t.obs == nil {
		return
	}
	d := int64(time.Since(t0))
	t.obs.rebuilds.Add(1)
	t.obs.rebuildKeys.Add(int64(size))
	t.obs.rebuildNS.Record(d)
	t.obs.rebuildSize.Record(int64(size))
}

// labeledBuild runs buildIdeal under the "rebuild" pprof label when
// the tree is observed, so CPU profiles split rebuild work out of the
// surrounding traversal; unobserved trees call buildIdeal directly and
// allocate no closure.
func (t *Tree[K, V]) labeledBuild(keys []K, vals []V) (root *node[K, V]) {
	if t.obs == nil {
		return t.buildIdeal(keys, vals)
	}
	parallel.WithLabel(true, "rebuild", func() {
		root = t.buildIdeal(keys, vals)
	})
	return root
}

// observe registers the arena's live telemetry with r as gauge
// functions under the "core." prefix: free-list inventory, cumulative
// scratch gets and reuse hits, and the chunk-build counters. Called
// once, by New: every arena belongs to exactly one tree, and trees
// sharing a registry sum their gauges under the same names.
func (a *treeArena[K, V]) observe(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Func("core.arena.retained_buffers", func() int64 {
		b, _ := a.retained()
		return int64(b)
	})
	r.Func("core.arena.retained_elems", func() int64 {
		_, e := a.retained()
		return e
	})
	r.Func("core.arena.scratch_gets", func() int64 {
		g, _ := a.scratchStats()
		return g
	})
	r.Func("core.arena.scratch_reuses", func() int64 {
		_, u := a.scratchStats()
		return u
	})
	r.Func("core.chunk.builds", a.chunkBuilds.Load)
	r.Func("core.chunk.keys", a.chunkKeys.Load)
}
