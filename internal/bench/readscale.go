package bench

import (
	"time"

	"repro/pbist"
)

// ReadScaleRow is one point of the read-scaling experiment: point-read
// throughput (million ops per second) at a given client-goroutine
// count for pbist.Concurrent's read path, plus a mixed column that
// keeps the combiner republishing while reads are under load.
type ReadScaleRow struct {
	Clients   int
	GetMops   float64 // c.Get: wait-free published-version reads
	MixedMops float64 // 90% Get, 10% combiner writes (republish under load)
	Epochs    int64   // combiner epochs during the mixed replay (≈ republish count)
}

// readOnlyScripts deals the same per-client scripts as the concurrent
// experiment (same keys, same shuffle) but tags every op as a read.
func readOnlyScripts(w Workload, rep, clients int) [][]scriptOp {
	scripts := concurrentScripts(w, rep, clients)
	for _, sc := range scripts {
		for i := range sc {
			sc[i].kind = scGet
		}
	}
	return scripts
}

// RunReadScale measures point-read throughput versus client count for
// the wait-free read path (Get: interpolate against the latest
// published version, no coordination), replaying read-only scripts
// against a bulk-loaded structure. A second replay runs the standard
// 90/10 mixed scripts with writes through the combiner, so reads are
// measured while versions are being republished and chunks
// retired/recycled underneath them.
//
// Read throughput should hold (not degrade) as clients grow — there is
// no queue to collapse on — and scale with core count (each Get is an
// independent cache-local probe; see README, "Wait-free reads and
// snapshots").
func RunReadScale(w Workload, clients []int, reps int) []ReadScaleRow {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	base := w.BaseKeys()
	baseVals := MapPayloads(base)
	opts := pbist.Options{AssumeSorted: true}

	rows := make([]ReadScaleRow, 0, len(clients))
	for _, nc := range clients {
		ro := make([][][]scriptOp, reps)
		mixed := make([][][]scriptOp, reps)
		for rep := 0; rep < reps; rep++ {
			ro[rep] = readOnlyScripts(w, rep, nc)
			mixed[rep] = concurrentScripts(w, rep, nc)
		}

		row := ReadScaleRow{Clients: nc}

		{
			c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{Options: opts}, base, baseVals)
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replay(ro[rep],
					func(k int64) { c.Get(k) },
					func(k int64, v uint64) { c.Put(k, v) },
					func(k int64) { c.Delete(k) })
			}
			row.GetMops = mops(ro[0], total/time.Duration(reps))
			c.Close()
		}

		// Mixed: 10% of ops keep the combiner publishing fresh
		// versions, exercising pin/era reclamation under read load.
		// Fresh structure: the replay drifts its contents.
		{
			c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{Options: opts}, base, baseVals)
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replay(mixed[rep],
					func(k int64) { c.Get(k) },
					func(k int64, v uint64) { c.Put(k, v) },
					func(k int64) { c.Delete(k) })
			}
			row.MixedMops = mops(mixed[0], total/time.Duration(reps))
			row.Epochs = c.Stats().Epochs
			c.Close()
		}

		rows = append(rows, row)
	}
	return rows
}
