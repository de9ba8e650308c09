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

// runEpoch executes one combined batch: it sorts the epoch's events by
// key, reads each distinct key's post-epoch presence and last-wins
// value off the last event of its run, hands every distinct key to one
// ApplyResolved call, which reports the pre-epoch presences, and
// replays each key's events from that presence to fill the per-op
// results.
//
//pbist:combiner
func (c *Combiner[K, V]) runEpoch(ops []*op[K, V]) {
	pr := c.probe
	buf := &c.buf
	// The clock is read only on an observed combiner: the stamps feed
	// the trace, the histograms and MeanWait, which record nothing
	// otherwise.
	var start time.Time
	if pr != nil {
		start = time.Now()
	}

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

	// Distinct keys and their event runs. Only writes carry keys, so a
	// run's last event decides the key: live after the epoch iff it is
	// a Put, whose value is installed (also when the key pre-existed,
	// since the value may differ). keys is sorted and duplicate-free,
	// as the engine requires.
	keys := slices.Grow(buf.keys[:0], nev)
	live := slices.Grow(buf.live[:0], nev)
	winVal := slices.Grow(buf.winVal[:0], nev)
	runStart := append(slices.Grow(buf.runs[:0], nev+1), 0)
	for i := range events {
		e := events[i]
		if i+1 < len(events) && events[i+1].key == e.key {
			continue
		}
		o := ops[e.op]
		put := o.kind == kindPut
		var val V
		if put {
			val = o.vals[e.sub]
		}
		keys = append(keys, e.key)
		live = append(live, put)
		winVal = append(winVal, val)
		runStart = append(runStart, int32(i+1))
	}
	buf.keys, buf.live, buf.winVal, buf.runs = keys, live, winVal, runStart
	nruns := len(keys)

	// Together with start and end, the phase stamps below tile the
	// epoch into the sort/write/replay/publish spans of its trace.
	var tSort, tWrite, tReplay time.Time
	if pr != nil {
		tSort = time.Now()
	}

	// One write traversal applies the epoch and reports every key's
	// pre-epoch presence, which the answers replay from. The engine
	// never retains a batch slice (writes copy into tree-owned storage).
	found := slices.Grow(buf.found[:0], nruns)[:nruns] // the engine writes every entry
	buf.found = found
	rebuildKeys := 0
	if nruns > 0 {
		rebuildKeys = c.eng.ApplyResolved(keys, winVal, live, found)
	}
	if pr != nil {
		tWrite = time.Now()
	}

	// Replay every key's events in linearization order, in parallel
	// across keys: each event writes its op's answer at its own
	// position. Distinct keys never share a result position, so the
	// scatter is race-free.
	if pr != nil {
		parallel.WithLabel(true, "combine-replay", func() {
			c.replayRuns(ops, events, runStart, found)
		})
		tReplay = time.Now()
	} else {
		c.replayRuns(ops, events, runStart, found)
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

	// Statistics, then signal every client. Waiters read their results
	// only after they see their op signaled, so the signals publish
	// the scatter writes above.
	var waitSum time.Duration
	if pr != nil {
		for _, o := range ops {
			waitSum += start.Sub(o.enq)
		}
	}
	c.smu.Lock()
	c.st.epochs++
	c.st.ops += int64(len(ops))
	c.st.keys += int64(nev)
	c.st.waitTotal += waitSum
	c.smu.Unlock()

	if pr != nil {
		c.traceEpoch(ops, nev, rebuildKeys, start, tSort, tWrite, tReplay, time.Now())
	}

	for _, o := range ops {
		signal(o)
	}
}

// replayGrain is the most distinct keys an epoch replays inline;
// larger epochs replay in blocks of this many keys on the pool.
const replayGrain = 256

// replayRuns is the replay stage of runEpoch, extracted so the
// observed path can run it under a pprof label without forcing a
// closure allocation on the unobserved path. It touches no
// combiner-confined state — everything it needs arrives as arguments.
// Run r holds the events runStart[r]:runStart[r+1] of one key, whose
// pre-epoch presence is found[r]. An epoch of at most replayGrain keys
// loops inline, so a serving epoch allocates no closure here.
func (c *Combiner[K, V]) replayRuns(ops []*op[K, V], events []event[K], runStart []int32, found []bool) {
	if len(found) <= replayGrain {
		for r, present := range found {
			replayRun(ops, events[runStart[r]:runStart[r+1]], present)
		}
		return
	}
	parallel.For(c.pool, len(found), replayGrain, func(r int) {
		replayRun(ops, events[runStart[r]:runStart[r+1]], found[r])
	})
}

// replayRun answers the events of one key's run in linearization
// order, starting from the key's pre-epoch presence: each event
// writes its op's answer at its own position.
func replayRun[K cmp.Ordered, V any](ops []*op[K, V], run []event[K], present bool) {
	for _, e := range run {
		o := ops[e.op]
		if o.kind == kindPut {
			o.rfound[e.sub] = !present
			present = true
		} else {
			o.rfound[e.sub] = present
			present = false
		}
	}
}
