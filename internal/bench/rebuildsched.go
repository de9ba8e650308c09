package bench

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/pbist"
)

// RebuildSchedRow is one point of the rebuild-scheduler experiment:
// client-observed latency percentiles of write-heavy point-op churn
// under one rebuild-scheduling mode. The eager row is the paper's
// behavior (every due rebuild inline, RebuildBudgetPerEpoch unset) and
// is the baseline the bounded row is gated against: the
// whole point of the scheduler is the p999 column, which under eager
// scheduling absorbs the full O(n) root-rebuild stall plus the queueing
// backlog it causes (the open-loop harness charges a stall to every op
// it postpones).
type RebuildSchedRow struct {
	Mode         string  // "eager" | "bounded"
	Dist         string  // batch distribution of the churn scripts
	Budget       int     // RebuildBudgetPerEpoch (0 for eager)
	Clients      int     // client goroutines offering load
	OfferedKops  float64 // scheduled aggregate arrival rate, kops/s
	AchievedKops float64
	MeanUS       float64
	P50US        float64
	P90US        float64
	P99US        float64
	P999US       float64
	MaxUS        float64
	// MaxEpochRebuildKeys is the largest per-epoch rebuild spend any
	// epoch of the run reports — the empirical witness that the cap
	// held (eager mode reports 0: no scheduler, nothing counted). Every
	// epoch's trace is read; none is evicted unread.
	MaxEpochRebuildKeys int
	// PeakRebuildDebt is the largest outstanding-debt figure any epoch
	// of the run reports, in keys — how far behind the drain ran.
	PeakRebuildDebt int
}

// rebuildChurnPermille fixes the rebuild experiment's op mix at 10%
// Get, 45% Put, 45% Delete: write-heavy churn is what drives modCnt
// into the rebuild threshold over and over, which is the regime the
// scheduler exists for. Only the Puts and Deletes queue behind a
// stalled epoch; the Gets read the published version.
const rebuildChurnPermille = 100

// RunRebuildSched measures the latency effect of the amortized rebuild
// scheduler: the same open-loop write-heavy churn is replayed against
// two identically loaded Concurrent frontends — eager (no budget) and
// bounded-sync (budget, drains inside the epochs) — and each run
// reports the coordinated-omission-safe percentiles plus the scheduler
// evidence from its epoch traces. rateKops <= 0 replays closed-loop
// (saturation latency). It fails if an epoch's trace was evicted from
// the ring before it was read, which would hide that epoch from the
// cap and debt columns.
func RunRebuildSched(w Workload, clients int, rateKops float64, reps, budget int) ([]RebuildSchedRow, error) {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	if clients < 1 {
		clients = 16
	}
	if budget <= 0 {
		budget = 4096
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

	modes := []struct {
		name   string
		budget int
	}{
		{"eager", 0},
		{"bounded", budget},
	}

	rows := make([]RebuildSchedRow, 0, len(modes))
	for _, m := range modes {
		c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{
			Options: pbist.Options{
				AssumeSorted:          true, // base is sorted unique
				RebuildBudgetPerEpoch: m.budget,
			},
			TraceDepth: depth,
		}, base, baseVals)
		h := obs.NewHistogram()
		var total time.Duration
		maxSpend, peakDebt := 0, 0
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
					c.Close()
					return nil, fmt.Errorf("rebuildsched %s: rep %d ran %d epochs but the trace ring (depth %d) kept %d of them",
						m.name, rep, fresh, depth, len(traces))
				}
				for _, tr := range traces {
					maxSpend = max(maxSpend, tr.RebuildKeys)
					peakDebt = max(peakDebt, tr.RebuildDebt)
				}
			}
			read = epochs
		}
		c.Close()

		lr := latencyRowFrom("concurrent", distName, clients, rateKops,
			ops, total/time.Duration(reps), h.Snapshot())
		rows = append(rows, RebuildSchedRow{
			Mode:                m.name,
			Dist:                distName,
			Budget:              m.budget,
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
			PeakRebuildDebt:     peakDebt,
		})
	}
	return rows, nil
}
