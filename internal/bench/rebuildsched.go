package bench

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/pbist"
)

// RebuildSchedRow is the result of the rebuild experiment:
// client-observed latency percentiles of write-heavy point-op churn
// under the engine's one rebuild policy, eager (every due §7.1 rebuild
// runs inline in the epoch that crossed the threshold). The p999 and
// max columns absorb the O(n) root-rebuild stall plus the queueing
// backlog it causes (the open-loop harness charges a stall to every op
// it postpones).
type RebuildSchedRow struct {
	Mode         string  // always "eager", the policy the row measured
	Dist         string  // batch distribution of the churn scripts
	Clients      int     // client goroutines offering load
	OfferedKops  float64 // scheduled aggregate arrival rate, kops/s
	AchievedKops float64
	MeanUS       float64
	P50US        float64
	P90US        float64
	P99US        float64
	P999US       float64
	MaxUS        float64
	// MaxEpochRebuildKeys is the largest rebuild any one epoch of the
	// run laid down, in keys (EpochTrace.RebuildKeys). Every epoch's
	// trace is read; none is evicted unread.
	MaxEpochRebuildKeys int
}

// rebuildChurnPermille fixes the rebuild experiment's op mix at 10%
// Get, 45% Put, 45% Delete: write-heavy churn is what drives modCnt
// into the rebuild threshold over and over, which is the regime the
// experiment measures. Only the Puts and Deletes queue behind a
// stalled epoch; the Gets read the published version.
const rebuildChurnPermille = 100

// RunRebuildSched measures the latency cost of eager rebuilds: an
// open-loop write-heavy churn is replayed against a loaded Concurrent
// frontend, and the run reports the coordinated-omission-safe
// percentiles plus the largest per-epoch rebuild from its epoch
// traces. rateKops <= 0 replays closed-loop (saturation latency). It
// fails if an epoch's trace was evicted from the ring before it was
// read, which would hide that epoch's rebuild from the
// max_epoch_rebuild_keys column.
func RunRebuildSched(w Workload, clients int, rateKops float64, reps int) (RebuildSchedRow, error) {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	if clients < 1 {
		clients = 16
	}
	base := w.BaseKeys()
	baseVals := MapPayloads(base)

	var interval time.Duration
	if rateKops > 0 {
		interval = time.Duration(float64(clients) / (rateKops * 1e3) * 1e9)
	}

	distName := w.DistName()
	scripts := make([][][]scriptOp, reps)
	for rep := 0; rep < reps; rep++ {
		scripts[rep] = scriptsWithMix(w, rep, clients, rebuildChurnPermille)
	}
	ops := 0
	for _, sc := range scripts[0] {
		ops += len(sc)
	}
	// Every rep deals the same M keys, so each rep has ops operations,
	// and an epoch carries at least one of them: a ring of ops+1 traces
	// holds every epoch of one rep.
	depth := ops + 1

	c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{
		Options:    pbist.Options{AssumeSorted: true}, // base is sorted unique
		TraceDepth: depth,
	}, base, baseVals)
	defer c.Close()
	h := obs.NewHistogram()
	var total time.Duration
	maxSpend := 0
	var read int64 // epochs whose traces were read
	for rep := 0; rep < reps; rep++ {
		total += replayOpenLoop(scripts[rep], interval, h,
			func(k int64) { c.Get(k) },
			func(k int64, v uint64) { c.Put(k, v) },
			func(k int64) { c.Delete(k) })
		// Every op of the rep has returned, and an epoch's trace is
		// pushed before its clients wake, so the newest traces are
		// exactly the rep's epochs and nothing runs until the next
		// rep. Read only those, so the copy stays one rep's worth.
		epochs := c.Stats().Epochs
		if fresh := epochs - read; fresh > 0 {
			traces := c.Trace(int(fresh))
			if int64(len(traces)) != fresh {
				return RebuildSchedRow{}, fmt.Errorf("rebuildsched: rep %d ran %d epochs but the trace ring (depth %d) kept %d of them",
					rep, fresh, depth, len(traces))
			}
			for _, tr := range traces {
				maxSpend = max(maxSpend, tr.RebuildKeys)
			}
		}
		read = epochs
	}

	lr := latencyRowFrom("concurrent", distName, clients, rateKops,
		ops, total/time.Duration(reps), h.Snapshot())
	return RebuildSchedRow{
		Mode:                "eager",
		Dist:                distName,
		Clients:             clients,
		OfferedKops:         lr.OfferedKops,
		AchievedKops:        lr.AchievedKops,
		MeanUS:              lr.MeanUS,
		P50US:               lr.P50US,
		P90US:               lr.P90US,
		P99US:               lr.P99US,
		P999US:              lr.P999US,
		MaxUS:               lr.MaxUS,
		MaxEpochRebuildKeys: maxSpend,
	}, nil
}
