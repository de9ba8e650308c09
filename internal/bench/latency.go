package bench

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pbist"
)

// LatencyRow is one point of the latency experiment: client-observed
// point-operation latency percentiles for one frontend under one batch
// distribution at a fixed offered arrival rate. Latencies are measured
// open-loop — from each operation's scheduled arrival time, not from
// the moment the client got around to issuing it — so an engine stall
// charges every operation queued behind it and the percentiles are
// free of coordinated omission.
type LatencyRow struct {
	Frontend     string  // "concurrent" | "sharded"
	Dist         string  // batch distribution the keys were drawn from
	Clients      int     // client goroutines offering load
	OfferedKops  float64 // scheduled arrival rate, thousand ops/s (all clients)
	AchievedKops float64 // completed ops over wall time
	MeanUS       float64
	P50US        float64
	P90US        float64
	P99US        float64
	P999US       float64
	MaxUS        float64
}

// latencyDists is the distribution grid of the latency experiment: the
// smooth case interpolation search is built for and the skewed case
// that hammers a few shards/subtrees.
var latencyDists = []string{"uniform", "zipf"}

// replayOpenLoop replays every client script open-loop: client c's
// i-th operation is scheduled at start + i·interval, the client sleeps
// until then (never ahead), issues the op, and records
// now − scheduledStart into h. When the engine falls behind, the
// client does not wait to reschedule — the next operations fire
// immediately and their recorded latencies include the backlog, which
// is exactly the coordinated-omission-safe accounting HdrHistogram's
// correction approximates after the fact.
func replayOpenLoop(scripts [][]scriptOp, interval time.Duration, h *obs.Histogram,
	get func(int64), put func(int64, uint64), del func(int64)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, sc := range scripts {
		wg.Add(1)
		go func(sc []scriptOp) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			for i, op := range sc {
				sched := t0.Add(time.Duration(i) * interval)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				switch op.kind {
				case scGet:
					get(op.key)
				case scPut:
					put(op.key, MapPayload(op.key))
				case scDelete:
					del(op.key)
				}
				h.Record(time.Since(sched).Nanoseconds())
			}
		}(sc)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// latencyRowFrom converts a histogram snapshot plus wall-clock
// accounting into the experiment's row (all latencies in µs).
func latencyRowFrom(frontend, dist string, clients int, offered float64,
	ops int, elapsed time.Duration, hs obs.HistSnapshot) LatencyRow {
	row := LatencyRow{
		Frontend:    frontend,
		Dist:        dist,
		Clients:     clients,
		OfferedKops: offered,
		MeanUS:      hs.Mean / 1e3,
		P50US:       float64(hs.P50) / 1e3,
		P90US:       float64(hs.P90) / 1e3,
		P99US:       float64(hs.P99) / 1e3,
		P999US:      float64(hs.P999) / 1e3,
		MaxUS:       float64(hs.Max) / 1e3,
	}
	if elapsed > 0 {
		row.AchievedKops = float64(ops) / elapsed.Seconds() / 1e3
	}
	return row
}

// RunLatencyWorkload measures client-observed operation latency under
// an open-loop arrival process: for every frontend in {Concurrent,
// Sharded(shards)} and every distribution in {uniform, zipf}, the
// engine is bulk-loaded with the base keys, then clients goroutines
// replay the standard 90/5/5 point-op scripts with operations
// scheduled at a fixed aggregate rate of rateKops thousand ops per
// second. Each op's latency is measured from its scheduled arrival
// (not its actual issue time), so queueing delay behind a slow epoch
// or a rebuild is charged to every op it postpones. Only the writes
// queue: Gets read the published versions and wait on no epoch, so
// the 90% read share adds no combiner load. reps repetitions
// accumulate into one histogram per row.
//
// rateKops <= 0 selects a closed-loop fallback (interval 0): clients
// issue back-to-back and the row reports saturation latency.
func RunLatencyWorkload(w Workload, clients, shards int, rateKops float64, reps int) []LatencyRow {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	if clients < 1 {
		clients = 16
	}
	if shards < 1 {
		shards = 8
	}
	base := w.BaseKeys()
	baseVals := MapPayloads(base)
	opts := pbist.Options{AssumeSorted: true} // base is sorted unique

	var interval time.Duration
	if rateKops > 0 {
		// Aggregate rate split evenly: each client schedules one op
		// every clients/rate seconds.
		interval = time.Duration(float64(clients) / (rateKops * 1e3) * 1e9)
	}

	rows := make([]LatencyRow, 0, 2*len(latencyDists))
	for _, distName := range latencyDists {
		dw := w
		dw.Dist = distName
		dw.Clusters = 0
		scripts := make([][][]scriptOp, reps)
		for rep := 0; rep < reps; rep++ {
			scripts[rep] = concurrentScripts(dw, rep, clients)
		}
		ops := 0
		for _, sc := range scripts[0] {
			ops += len(sc)
		}

		// One-shard frontend.
		{
			c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{Options: opts}, base, baseVals)
			h := obs.NewHistogram()
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replayOpenLoop(scripts[rep], interval, h,
					func(k int64) { c.Get(k) },
					func(k int64, v uint64) { c.Put(k, v) },
					func(k int64) { c.Delete(k) })
			}
			c.Close()
			rows = append(rows, latencyRowFrom("concurrent", distName, clients, rateKops,
				ops, total/time.Duration(reps), h.Snapshot()))
		}

		// Sharded frontend, same scripts.
		{
			s := pbist.NewShardedFromItems(pbist.ShardedOptions{
				ConcurrentOptions: pbist.ConcurrentOptions{Options: opts},
				Shards:            shards,
			}, base, baseVals)
			h := obs.NewHistogram()
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replayOpenLoop(scripts[rep], interval, h,
					func(k int64) { s.Get(k) },
					func(k int64, v uint64) { s.Put(k, v) },
					func(k int64) { s.Delete(k) })
			}
			s.Close()
			rows = append(rows, latencyRowFrom("sharded", distName, clients, rateKops,
				ops, total/time.Duration(reps), h.Snapshot()))
		}
	}
	return rows
}
