package main

import "repro/pbist"

// layerMetrics derives the per-layer metrics of a measured window from
// two registry snapshots bracketing it. Work is given per key the
// combiners served, so a faster run that serves more keys in the same
// window still reads on the same scale; waits and scatter/stitch are
// means per event, reuse as the share of attempts that reused.
func layerMetrics(before, after pbist.MetricsSnapshot) map[string]metric {
	counter := func(name string) float64 {
		return float64(after.Counters[name] - before.Counters[name])
	}
	gauge := func(name string) float64 {
		return float64(after.Gauges[name] - before.Gauges[name])
	}
	sum := func(name string) float64 {
		return float64(after.Histograms[name].Sum - before.Histograms[name].Sum)
	}
	count := func(name string) float64 {
		return float64(after.Histograms[name].Count - before.Histograms[name].Count)
	}
	epochs, keys := counter("combine.epochs"), counter("combine.keys")
	perKey := func(name string) metric { return metric{ratio(sum(name), keys), "ns"} }
	meanUS := func(name string) metric { return metric{ratio(sum(name), count(name)) / 1e3, "us"} }
	return map[string]metric{
		"combine_keys_per_epoch":     {ratio(keys, epochs), "keys"},
		"combine_gather_wait_us":     meanUS("combine.epoch.gather_wait_ns"),
		"combine_sort_ns_per_key":    perKey("combine.epoch.sort_ns"),
		"combine_read_ns_per_key":    perKey("combine.epoch.read_ns"),
		"combine_replay_ns_per_key":  perKey("combine.epoch.replay_ns"),
		"combine_write_ns_per_key":   perKey("combine.epoch.write_ns"),
		"combine_publish_ns_per_key": perKey("combine.epoch.publish_ns"),
		"core_rebuild_ns_per_key":    perKey("core.rebuild.duration_ns"),
		"core_rebuild_keys_per_key":  {ratio(counter("core.rebuild.keys"), keys), "keys"},
		"shard_scatter_us":           meanUS("shard.scatter_ns"),
		"shard_stitch_us":            meanUS("shard.stitch_ns"),
		"arena_hit_pct":              {100 * ratio(gauge("core.arena.scratch_reuses"), gauge("core.arena.scratch_gets")), "%"},
		"mvcc_recycled_pct":          {100 * ratio(counter("core.mvcc.chunks_recycled"), counter("core.mvcc.chunks_retired")), "%"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
