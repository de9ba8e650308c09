package combine

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/parallel"
)

// event is one (operation, position) element of an epoch: op ops[op]
// touches key at its position sub. Sorting events by (key, op, sub)
// groups each distinct key's touches into a run ordered by
// linearization order (the epoch slice preserves enqueue order, so
// the op index ranks submissions; sub ranks positions inside one
// mini-batch).
type event[K cmp.Ordered] struct {
	key K
	op  int32
	sub int32
}

// runEpoch executes one combined batch: it resolves the pre-epoch
// presence of every distinct key with at most one batched contains
// traversal, replays each key's events in linearization order to fill
// per-op results, and applies the surviving last-wins writes with at
// most one PutBatched and one RemoveBatched traversal. keyCount and sized feed
// the statistics.
//
//pbist:combiner
func (c *Combiner[K, V]) runEpoch(ops []*op[K, V], keyCount int, sized bool) {
	start := time.Now()
	pr := c.probe

	// Open the epoch's rebuild budget before any traversal, so every
	// rebuild the write traversals below spend shares one per-epoch cap
	// (core's sched.go).
	c.eng.BeginRebuildEpoch()

	// Flatten the epoch into events. Fences carry no keys, so they
	// complete with the rest of the epoch. The event list and every
	// per-run array below are arena scratch: borrowed here, returned at
	// the end of this epoch (before clients wake), recycled by the next
	// epoch.
	nev := 0
	for _, o := range ops {
		nev += len(o.keys)
	}
	evBuf := c.scr.ev.Get(nev)
	events := evBuf[:0]
	for i, o := range ops {
		for j := range o.keys {
			events = append(events, event[K]{key: o.keys[j], op: int32(i), sub: int32(j)})
		}
	}
	slices.SortFunc(events, func(a, b event[K]) int {
		if r := cmp.Compare(a.key, b.key); r != 0 {
			return r
		}
		if a.op != b.op {
			return int(a.op - b.op)
		}
		return int(a.sub - b.sub)
	})

	// Distinct keys and their event runs.
	rkBuf := c.scr.keys.Get(nev)
	rsBuf := c.scr.i32s.Get(nev + 1)
	readKeys := rkBuf[:0]
	runStart := rsBuf[:0]
	for i := range events {
		if i == 0 || events[i].key != events[i-1].key {
			runStart = append(runStart, int32(i))
			readKeys = append(readKeys, events[i].key)
		}
	}
	runStart = append(runStart, int32(len(events)))
	nruns := len(readKeys)

	// The phase stamps below are taken only when the combiner is
	// observed; together with start and end they tile the epoch into
	// the sort/read/replay/write/rebuild/publish spans of its trace.
	var tSort, tRead, tReplay, tWrite, tSched time.Time
	if pr != nil {
		tSort = time.Now()
	}

	// One batched contains traversal resolves the pre-epoch presence of
	// every key the epoch touches, which the writes' return values and
	// the write batches below need. The destination is epoch scratch
	// (the *Into engine contract wants it zeroed), returned below with
	// the rest, so steady-state epochs run the read phase
	// allocation-free.
	preFound := c.scr.bools.GetZero(nruns)
	if nruns > 0 {
		c.eng.ContainsBatchedInto(readKeys, preFound)
	}
	if pr != nil {
		tRead = time.Now()
	}

	// Replay every key's events in linearization order, in parallel
	// across keys: presence (and value) evolve per event, each event
	// writes its op's answer at its own position, and the key's final
	// state decides the write traversal below. Distinct keys never
	// share a result position, so the scatter is race-free.
	putMark := c.scr.bools.GetZero(nruns)
	delMark := c.scr.bools.GetZero(nruns)
	winVal := c.scr.vals.GetZero(nruns)
	if pr != nil {
		parallel.WithLabel(true, "combine-replay", func() {
			c.replayRuns(ops, events, runStart, preFound, putMark, delMark, winVal, nruns)
		})
		tReplay = time.Now()
	} else {
		c.replayRuns(ops, events, runStart, preFound, putMark, delMark, winVal, nruns)
	}

	// Gather the surviving writes in run order — readKeys is sorted, so
	// the write batches are sorted and duplicate-free as the engine
	// requires — and apply them with one traversal each. The engine
	// never retains a batch slice (writes copy into tree-owned
	// storage), so scratch-backed batches are safe here.
	pkBuf := c.scr.keys.Get(nruns)
	pvBuf := c.scr.vals.Get(nruns)
	dkBuf := c.scr.keys.Get(nruns)
	putK := pkBuf[:0]
	putV := pvBuf[:0]
	delK := dkBuf[:0]
	for r := 0; r < nruns; r++ {
		switch {
		case putMark[r]:
			putK = append(putK, readKeys[r])
			putV = append(putV, winVal[r])
		case delMark[r]:
			delK = append(delK, readKeys[r])
		}
	}
	if len(putK) > 0 {
		c.eng.PutBatched(putK, putV)
	}
	if len(delK) > 0 {
		c.eng.RemoveBatched(delK)
	}
	// Publish the post-epoch state for version readers before any
	// client of this epoch wakes: an operation that has completed is
	// then always visible to the wait-free version reads, which is what
	// makes them linearizable with combined operations.
	// Fence-only epochs publish nothing new but still advance
	// reclamation.
	c.eng.PublishVersion()
	if pr != nil {
		tWrite = time.Now()
	}
	// Close the rebuild budget after the publish: the scheduler drains
	// deferred debt with what is left of the budget, and its splices
	// reach readers at the next publish. The spent/debt figures feed
	// the epoch trace.
	rbSpent, rbDebt := c.eng.EndRebuildEpoch()
	if pr != nil {
		tSched = time.Now()
	}

	// Every scratch buffer goes back before the clients wake: nothing
	// below reads them, so the next epoch is free to recycle.
	c.scr.ev.Put(evBuf)
	c.scr.keys.Put(rkBuf)
	c.scr.i32s.Put(rsBuf)
	c.scr.bools.Put(preFound)
	c.scr.bools.Put(putMark)
	c.scr.bools.Put(delMark)
	c.scr.vals.Put(winVal)
	c.scr.keys.Put(pkBuf)
	c.scr.vals.Put(pvBuf)
	c.scr.keys.Put(dkBuf)

	// Statistics, then wake every client. Waiters read their results
	// only after receiving from done, so the sends publish the scatter
	// writes above.
	var waitSum time.Duration
	for _, o := range ops {
		waitSum += start.Sub(o.enq)
	}
	c.smu.Lock()
	c.st.epochs++
	c.st.ops += int64(len(ops))
	c.st.keys += int64(keyCount)
	if sized {
		c.st.sizeFlushes++
	}
	c.st.waitTotal += waitSum
	c.smu.Unlock()

	if pr != nil {
		c.traceEpoch(ops, keyCount, sized, rbSpent, rbDebt, start, tSort, tRead, tReplay, tWrite, tSched, time.Now())
	}

	for _, o := range ops {
		o.done <- struct{}{}
	}
}

// replayRuns is the replay stage of runEpoch, extracted so the
// observed path can run it under a pprof label without forcing a
// closure allocation on the unobserved path. It touches no
// combiner-confined state — everything it needs arrives as epoch-local
// scratch.
func (c *Combiner[K, V]) replayRuns(ops []*op[K, V], events []event[K], runStart []int32, preFound []bool, putMark, delMark []bool, winVal []V, nruns int) {
	parallel.For(c.pool, nruns, 256, func(r int) {
		present := preFound[r]
		var val V
		// Only writes carry keys, so every run ends in a write.
		for i := runStart[r]; i < runStart[r+1]; i++ {
			e := events[i]
			o := ops[e.op]
			if o.kind == kindPut {
				o.rfound[e.sub] = !present
				present = true
				val = o.vals[e.sub]
			} else {
				o.rfound[e.sub] = present
				present = false
			}
		}
		switch {
		case present:
			// The last state-setting write was a Put: install its value
			// (an upsert also when the key pre-existed, since the value
			// may differ).
			putMark[r] = true
			winVal[r] = val
		case preFound[r]:
			delMark[r] = true
		}
	})
}
