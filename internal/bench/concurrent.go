package bench

import (
	"sync"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

// ConcurrentRow is one point of the concurrent-clients experiment:
// point-operation throughput (million ops per second) at a given
// client-goroutine count for the combining frontend and the two
// baselines, plus the mean combined epoch size the frontend achieved.
type ConcurrentRow struct {
	Clients     int
	CombineMops float64 // pbist.Concurrent (combining frontend)
	RWMapMops   float64 // sync.RWMutex around a pbist.Map
	SyncMapMops float64 // sync.Map
	EpochOps    float64 // mean writes combined per epoch (frontend only; reads never queue)
	EpochKeys   float64 // mean keys combined per epoch
	MeanWaitUS  float64 // mean µs a write queued before its epoch began
}

// script op kinds; the per-client scripts are generated once per
// repetition and replayed identically against every engine, so the
// three throughput columns measure the same key/op sequence.
const (
	scGet uint8 = iota
	scPut
	scDelete
)

type scriptOp struct {
	kind uint8
	key  int64
}

// readPermille fixes the op mix of the concurrent experiment at
// 90% Get, 5% Put, 5% Delete — the read-mostly point-op traffic the
// related concurrent-set evaluations (non-blocking ISTs, flat
// combining) use as their standard workload.
const readPermille = 900

// concurrentScripts deals one workload batch (M keys from the
// configured distribution) into per-client operation scripts: each
// client gets a contiguous slice of the batch, shuffled with its own
// deterministic RNG and tagged with the standard read-mostly op mix.
func concurrentScripts(w Workload, rep, clients int) [][]scriptOp {
	return scriptsWithMix(w, rep, clients, readPermille)
}

// scriptsWithMix is concurrentScripts with an explicit read share:
// readPermille out of every 1000 ops are Gets, the remainder split
// evenly between Puts and Deletes. The rebuildsched experiment
// uses a write-heavy mix to drive subtrees into their rebuild budget.
func scriptsWithMix(w Workload, rep, clients, readPerm int) [][]scriptOp {
	keys := w.Batch(rep)
	per, rem := len(keys)/clients, len(keys)%clients
	scripts := make([][]scriptOp, 0, clients)
	start := 0
	for c := 0; c < clients && start < len(keys); c++ {
		// Deal every key: the first rem clients take one extra, so the
		// scripts carry exactly M ops whatever the client count.
		end := start + per
		if c < rem {
			end++
		}
		part := keys[start:end]
		start = end
		r := dist.NewRNG(w.Seed ^ 0xc11e47 ^ uint64(rep)<<20 ^ uint64(c))
		sc := make([]scriptOp, len(part))
		for i, k := range part {
			sc[i] = scriptOp{kind: scGet, key: k}
			if p := r.Uint64n(1000); p >= uint64(readPerm) {
				if p&1 == 0 {
					sc[i].kind = scPut
				} else {
					sc[i].kind = scDelete
				}
			}
		}
		// Fisher–Yates with the client's deterministic RNG: the batch
		// arrives sorted, point traffic should not.
		for i := len(sc) - 1; i > 0; i-- {
			j := int(r.Uint64n(uint64(i + 1)))
			sc[i], sc[j] = sc[j], sc[i]
		}
		scripts = append(scripts, sc)
	}
	return scripts
}

// replay runs every client script against an engine described by its
// three point operations, all clients released by one barrier, and
// returns the elapsed wall time.
func replay(scripts [][]scriptOp, get func(int64), put func(int64, uint64), del func(int64)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, sc := range scripts {
		wg.Add(1)
		go func(sc []scriptOp) {
			defer wg.Done()
			<-start
			for _, op := range sc {
				switch op.kind {
				case scGet:
					get(op.key)
				case scPut:
					put(op.key, MapPayload(op.key))
				case scDelete:
					del(op.key)
				}
			}
		}(sc)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

func mops(scripts [][]scriptOp, elapsed time.Duration) float64 {
	n := 0
	for _, sc := range scripts {
		n += len(sc)
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds() / 1e6
}

// RunConcurrentWorkload measures point-operation throughput versus
// client-goroutine count: every engine is bulk-loaded with the §9
// base keys (8-byte payloads), then each repetition replays the same
// per-client scripts — M mixed point ops split across the clients —
// against the combining frontend (pbist.Concurrent: writes through the
// combiner, Gets from its published version), an RWMutex-guarded
// pbist.Map, and a sync.Map.
func RunConcurrentWorkload(w Workload, clients []int, reps int) []ConcurrentRow {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	base := w.BaseKeys()
	baseVals := MapPayloads(base)
	opts := pbist.Options{AssumeSorted: true} // base is sorted unique; workers default to GOMAXPROCS

	rows := make([]ConcurrentRow, 0, len(clients))
	for _, nc := range clients {
		scripts := make([][][]scriptOp, reps)
		for rep := 0; rep < reps; rep++ {
			scripts[rep] = concurrentScripts(w, rep, nc)
		}

		row := ConcurrentRow{Clients: nc}

		// Combining frontend. One structure per client count; the reps
		// drift its contents slightly (puts/deletes), identically to
		// the baselines below, which replay the same scripts.
		{
			c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{Options: opts}, base, baseVals)
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replay(scripts[rep],
					func(k int64) { c.Get(k) },
					func(k int64, v uint64) { c.Put(k, v) },
					func(k int64) { c.Delete(k) })
			}
			row.CombineMops = mops(scripts[0], total/time.Duration(reps))
			st := c.Stats()
			row.EpochOps = st.MeanOps
			row.EpochKeys = st.MeanKeys
			row.MeanWaitUS = float64(st.MeanWait.Nanoseconds()) / 1e3
			c.Close()
		}

		// Baseline 1: pbist.Map behind a sync.RWMutex.
		{
			m := pbist.NewMapFromItems(opts, base, baseVals)
			var mu sync.RWMutex
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replay(scripts[rep],
					func(k int64) { mu.RLock(); m.Get(k); mu.RUnlock() },
					func(k int64, v uint64) { mu.Lock(); m.Put(k, v); mu.Unlock() },
					func(k int64) { mu.Lock(); m.Delete(k); mu.Unlock() })
			}
			row.RWMapMops = mops(scripts[0], total/time.Duration(reps))
		}

		// Baseline 2: sync.Map.
		{
			var m sync.Map
			for i, k := range base {
				m.Store(k, baseVals[i])
			}
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replay(scripts[rep],
					func(k int64) { m.Load(k) },
					func(k int64, v uint64) { m.Store(k, v) },
					func(k int64) { m.Delete(k) })
			}
			row.SyncMapMops = mops(scripts[0], total/time.Duration(reps))
		}

		rows = append(rows, row)
	}
	return rows
}
