package bench

import (
	"time"

	"repro/internal/obs"
	"repro/pbist"
)

// RebuildSchedRow is one point of the rebuild-scheduler experiment:
// client-observed latency percentiles of write-heavy point-op churn
// under one rebuild-scheduling mode. The eager row is the paper's
// behavior (every due rebuild inline, RebuildBudgetPerEpoch unset) and
// is the baseline the bounded and async rows are gated against: the
// whole point of the scheduler is the p999 column, which under eager
// scheduling absorbs the full O(n) root-rebuild stall plus the queueing
// backlog it causes (the open-loop harness charges a stall to every op
// it postpones).
type RebuildSchedRow struct {
	Mode         string  // "eager" | "bounded" | "async"
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
	// recorded epoch trace reports — the empirical witness that the
	// cap held (eager mode reports 0: no scheduler, nothing counted).
	MaxEpochRebuildKeys int
	// PeakRebuildDebt is the largest outstanding-debt figure any epoch
	// trace reports, in keys — how far behind the drain ran.
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
// three identically loaded Concurrent frontends — eager (no budget),
// bounded-sync (budget, inline drains), async (budget + background
// rebuilds) — and each run reports the coordinated-omission-safe
// percentiles plus the scheduler evidence from its epoch traces.
// rateKops <= 0 replays closed-loop (saturation latency).
func RunRebuildSched(w Workload, clients int, rateKops float64, reps, budget int) []RebuildSchedRow {
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

	modes := []struct {
		name   string
		budget int
		async  bool
	}{
		{"eager", 0, false},
		{"bounded", budget, false},
		{"async", budget, true},
	}

	rows := make([]RebuildSchedRow, 0, len(modes))
	for _, m := range modes {
		c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{
			Options: pbist.Options{
				AssumeSorted:          true, // base is sorted unique
				RebuildBudgetPerEpoch: m.budget,
				AsyncRebuild:          m.async,
			},
			TraceDepth: 1 << 15,
		}, base, baseVals)
		h := obs.NewHistogram()
		var total time.Duration
		for rep := 0; rep < reps; rep++ {
			total += replayOpenLoop(scripts[rep], interval, h,
				func(k int64) { c.Get(k) },
				func(k int64, v uint64) { c.Put(k, v) },
				func(k int64) { c.Delete(k) })
		}
		maxSpend, peakDebt := 0, 0
		for _, tr := range c.Trace(0) {
			if tr.RebuildKeys > maxSpend {
				maxSpend = tr.RebuildKeys
			}
			if tr.RebuildDebt > peakDebt {
				peakDebt = tr.RebuildDebt
			}
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
	return rows
}
