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

// retainElems bounds what the per-epoch arrays keep between epochs:
// when an epoch ends, an array whose capacity exceeds retainElems
// elements is dropped, so one huge PutBatch does not pin its
// high-water mark. Epochs of single-key and mini-batch writes stay far
// under the bound and reuse their arrays.
const retainElems = 16384

// epochBufs holds the arrays one epoch fills. The combiner owns them:
// runEpoch regrows each to its epoch's size, and the next epoch reuses
// them. Their contents are dead between epochs.
type epochBufs[K cmp.Ordered, V any] struct {
	events []event[K]
	keys   []K     // distinct keys, sorted
	runs   []int32 // start of each key's event run, plus the end
	found  []bool  // pre-epoch presence per distinct key
	live   []bool  // post-epoch presence per distinct key
	winVal []V     // the value a surviving Put installs
}

// trim drops every array whose capacity exceeds maxCap elements.
func (b *epochBufs[K, V]) trim(maxCap int) {
	b.events = trimmed(b.events, maxCap)
	b.keys = trimmed(b.keys, maxCap)
	b.runs = trimmed(b.runs, maxCap)
	b.found = trimmed(b.found, maxCap)
	b.live = trimmed(b.live, maxCap)
	b.winVal = trimmed(b.winVal, maxCap)
}

// retained reports how many arrays b holds and their summed capacity
// in elements.
func (b *epochBufs[K, V]) retained() (bufs, elems int64) {
	for _, n := range [...]int{
		cap(b.events), cap(b.keys), cap(b.runs), cap(b.found),
		cap(b.live), cap(b.winVal),
	} {
		if n > 0 {
			bufs++
			elems += int64(n)
		}
	}
	return bufs, elems
}

// trimmed returns s, or nil when its capacity exceeds maxCap.
func trimmed[T any](s []T, maxCap int) []T {
	if cap(s) > maxCap {
		return nil
	}
	return s
}

// resized returns s with length n, reusing its array when the capacity
// suffices. The contents are arbitrary.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// runEpoch executes one combined batch: it resolves the pre-epoch
// presence of every distinct key with at most one batched contains
// traversal, replays each key's events in linearization order to fill
// per-op results and the key's post-epoch presence, and hands the keys
// that write, with both presences and the last-wins values, to one
// ApplyResolved call.
//
//pbist:combiner
func (c *Combiner[K, V]) runEpoch(ops []*op[K, V]) {
	start := time.Now()
	pr := c.probe
	buf := &c.buf

	// Flatten the epoch into events. Fences carry no keys, so they
	// complete with the rest of the epoch. The event list and every
	// per-run array below are the combiner's own, regrown here and
	// reused by the next epoch.
	nev := 0
	for _, o := range ops {
		nev += len(o.keys)
	}
	events := slices.Grow(buf.events[:0], nev)
	for i, o := range ops {
		for j := range o.keys {
			events = append(events, event[K]{key: o.keys[j], op: int32(i), sub: int32(j)})
		}
	}
	buf.events = events
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
	readKeys := slices.Grow(buf.keys[:0], nev)
	runStart := slices.Grow(buf.runs[:0], nev+1)
	for i := range events {
		if i == 0 || events[i].key != events[i-1].key {
			runStart = append(runStart, int32(i))
			readKeys = append(readKeys, events[i].key)
		}
	}
	runStart = append(runStart, int32(len(events)))
	buf.keys, buf.runs = readKeys, runStart
	nruns := len(readKeys)

	// The phase stamps below are taken only when the combiner is
	// observed; together with start and end they tile the epoch into
	// the sort/read/replay/write/publish spans of its trace.
	var tSort, tRead, tReplay, tWrite time.Time
	if pr != nil {
		tSort = time.Now()
	}

	// One batched contains traversal resolves the pre-epoch presence of
	// every key the epoch touches. The writes' return values need it,
	// and so does the write itself, which is why the engine runs no
	// presence check of its own.
	preFound := resized(buf.found, nruns)
	clear(preFound) // the *Into engine contract wants it zeroed
	buf.found = preFound
	if nruns > 0 {
		c.eng.ContainsBatchedInto(readKeys, preFound)
	}
	if pr != nil {
		tRead = time.Now()
	}

	// Replay every key's events in linearization order, in parallel
	// across keys: presence (and value) evolve per event, each event
	// writes its op's answer at its own position, and the key's final
	// presence and value are what the epoch writes. Distinct keys never
	// share a result position, so the scatter is race-free.
	live := resized(buf.live, nruns)
	winVal := resized(buf.winVal, nruns)
	buf.live, buf.winVal = live, winVal
	if pr != nil {
		parallel.WithLabel(true, "combine-replay", func() {
			c.replayRuns(ops, events, runStart, preFound, live, winVal, nruns)
		})
		tReplay = time.Now()
	} else {
		c.replayRuns(ops, events, runStart, preFound, live, winVal, nruns)
	}

	// Keep, in key order, the runs that write: a key live before or
	// after the epoch. readKeys is sorted, so the batch is sorted and
	// duplicate-free as the engine requires. The compaction runs in
	// place; nothing below reads the arrays by run, and the engine never
	// retains a batch slice (writes copy into tree-owned storage).
	w := 0
	for r := range nruns {
		if preFound[r] || live[r] {
			readKeys[w], winVal[w] = readKeys[r], winVal[r]
			preFound[w], live[w] = preFound[r], live[r]
			w++
		}
	}
	rebuildKeys := 0
	if w > 0 {
		rebuildKeys = c.eng.ApplyResolved(readKeys[:w], winVal[:w], preFound[:w], live[:w])
	}
	if pr != nil {
		tWrite = time.Now()
	}
	// Publish the post-epoch state for version readers before any
	// client of this epoch wakes: an operation that has completed is
	// then always visible to the wait-free version reads, which is what
	// makes them linearizable with combined operations.
	// Fence-only epochs publish nothing new but still advance
	// reclamation.
	c.eng.PublishVersion()

	// Nothing below reads the epoch's arrays. They stay for the next
	// epoch, except any a huge epoch grew past the retention bound; an
	// observed combiner reports what it keeps to its gauges.
	buf.trim(retainElems)
	if pr != nil {
		bufs, elems := buf.retained()
		c.retBufs.Store(bufs)
		c.retElems.Store(elems)
	}

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
	c.st.keys += int64(nev)
	c.st.waitTotal += waitSum
	c.smu.Unlock()

	if pr != nil {
		c.traceEpoch(ops, nev, rebuildKeys, start, tSort, tRead, tReplay, tWrite, time.Now())
	}

	for _, o := range ops {
		o.done <- struct{}{}
	}
}

// replayRuns is the replay stage of runEpoch, extracted so the
// observed path can run it under a pprof label without forcing a
// closure allocation on the unobserved path. It touches no
// combiner-confined state — everything it needs arrives as arguments.
func (c *Combiner[K, V]) replayRuns(ops []*op[K, V], events []event[K], runStart []int32, preFound, live []bool, winVal []V, nruns int) {
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
		// A key live after the epoch ends in a Put, whose value is
		// installed (also when the key pre-existed, since the value may
		// differ).
		live[r], winVal[r] = present, val
	})
}
