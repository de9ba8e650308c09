package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/iindex"
)

// This file implements the amortized rebuild scheduler: the machinery
// that decouples "subtree is over its modification budget" (§7.1) from
// "rebuild it now". With Config.RebuildBudgetPerEpoch unset (the
// default) the scheduler does not exist and every trigger site rebuilds
// eagerly, exactly as before. With a budget set, each mutating epoch
// (or standalone batch) may lay down at most that many rebuild keys;
// triggers that would exceed the budget record the subtree as rebuild
// debt instead and the mutation proceeds, letting modCnt run past
// C·initSize. Debt is repaid synchronously in later epochs, from the
// debt-priority heap, inside the epoch or batch that owns the tree
// (bounded-sync); drainDebt documents the starvation of a victim
// larger than the whole budget.
//
// Concurrency: the heap, the byKey index, and the spent counter are
// guarded by mu because rebuild triggers fire inside the parallel
// batch recursion (insertRec/removeRec fan out across pool workers).
// Everything else — epoch bracketing and drains — runs on the
// goroutine that owns the tree (the combiner, in the published
// setup), like every other mutating method.

// debtRec locates one indebted subtree: key is the first rep key the
// subtree root held when the debt was recorded (stable across COW
// copies, which share or copy the rep array verbatim, and across leaf
// merges, which only add keys), debt is its priority — the modCnt the
// subtree had reached when last deferred. Records are resolved lazily
// by walking the live tree (findIndebted); a record whose walk finds no
// over-budget node is stale (an enclosing rebuild already repaid it)
// and is dropped.
type debtRec[K iindex.Numeric] struct {
	key  K
	debt int
}

// schedCounters is the scheduler's observable state, split from the
// generic scheduler so obs.go can register it without type parameters.
type schedCounters struct {
	debtKeys     atomic.Int64 // outstanding debt (sum of record priorities)
	deferredKeys atomic.Int64 // cumulative rebuild keys whose work was deferred
}

// rebuildSched is the per-tree scheduler state. nil (budget unset)
// means eager rebuilds everywhere.
type rebuildSched[K iindex.Numeric] struct {
	budget int // max rebuild keys per epoch/batch

	mu        sync.Mutex
	spent     int  // rebuild keys reserved in the current epoch/batch
	epochOpen bool // a combiner epoch brackets the current batches
	heap      []debtRec[K]
	byKey     map[K]int // record key → heap position

	c schedCounters
}

// newSched builds the scheduler for cfg, nil when no budget is set.
func newSched[K iindex.Numeric](cfg Config) *rebuildSched[K] {
	if cfg.RebuildBudgetPerEpoch <= 0 {
		return nil
	}
	s := &rebuildSched[K]{
		budget: cfg.RebuildBudgetPerEpoch,
		byKey:  make(map[K]int),
	}
	s.c.observe(cfg.Metrics)
	return s
}

// --- debt heap (max-heap by debt, byKey position index) ---
// All heap mutators run with s.mu held.

func (s *rebuildSched[K]) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.byKey[h[i].key] = i
	s.byKey[h[j].key] = j
}

func (s *rebuildSched[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].debt >= s.heap[i].debt {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *rebuildSched[K]) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && s.heap[l].debt > s.heap[big].debt {
			big = l
		}
		if r < n && s.heap[r].debt > s.heap[big].debt {
			big = r
		}
		if big == i {
			return
		}
		s.swap(i, big)
		i = big
	}
}

func (s *rebuildSched[K]) heapPush(rec debtRec[K]) {
	s.heap = append(s.heap, rec)
	s.byKey[rec.key] = len(s.heap) - 1
	s.siftUp(len(s.heap) - 1)
}

// removeAt drops the record at heap position i, keeping the debt gauge
// in step.
func (s *rebuildSched[K]) removeAt(i int) {
	rec := s.heap[i]
	last := len(s.heap) - 1
	s.swap(i, last)
	s.heap = s.heap[:last]
	delete(s.byKey, rec.key)
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	s.c.debtKeys.Add(-int64(rec.debt))
}

// removeRecord drops the record for key if one exists.
func (s *rebuildSched[K]) removeRecord(key K) {
	s.mu.Lock()
	if i, ok := s.byKey[key]; ok {
		s.removeAt(i)
	}
	s.mu.Unlock()
}

// peekTop returns the highest-debt record without removing it.
func (s *rebuildSched[K]) peekTop() (debtRec[K], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.heap) == 0 {
		return debtRec[K]{}, false
	}
	return s.heap[0], true
}

// --- budget accounting (trigger sites, parallel-safe) ---

// tryReserveRebuild reserves est rebuild keys against the current
// epoch's budget, reporting whether the rebuild may proceed. The
// trigger sites compute est exactly — every batch key is pre-filtered
// live/absent, so an insert rebuild lays down size+k keys and a remove
// rebuild size−k — which makes the reservation the spend: no refund
// path, and the per-epoch cap holds under the parallel recursion
// because check and reserve are one critical section. A nil scheduler
// always allows (eager behavior).
func (t *Tree[K, V]) tryReserveRebuild(est int) bool {
	s := t.sched
	if s == nil {
		return true
	}
	s.mu.Lock()
	ok := s.spent+est <= s.budget
	if ok {
		s.spent += est
	}
	s.mu.Unlock()
	return ok
}

// deferRebuild records subtree v as rebuild debt: the trigger fired but
// the epoch's budget could not cover it, so the mutation proceeds and
// modCnt runs past the §7.1 budget until a later drain repays it. debt
// is the modCnt the subtree will have after the triggering batch
// applies; est is the rebuild size that was deferred (feeds the
// deferred_keys counter). Called from inside the parallel recursion.
func (t *Tree[K, V]) deferRebuild(v *node[K, V], k, est int) {
	s := t.sched
	key := v.rep[0]
	debt := v.modCnt + k
	s.mu.Lock()
	if i, ok := s.byKey[key]; ok {
		if d := debt - s.heap[i].debt; d > 0 {
			s.heap[i].debt = debt
			s.siftUp(i)
			s.c.debtKeys.Add(int64(d))
		}
	} else {
		s.heapPush(debtRec[K]{key: key, debt: debt})
		s.c.debtKeys.Add(int64(debt))
	}
	s.mu.Unlock()
	s.c.deferredKeys.Add(int64(est))
}

// --- record resolution (owning goroutine only) ---

// stepPos locates key in v.rep for a single-key walk, honoring the
// tree's traversal mode the same way findPositionsSeq does: child
// stepPos descends children[pos] when !found.
func (t *Tree[K, V]) stepPos(v *node[K, V], key K) (pos int, found bool) {
	if t.cfg.Traverse == TraverseRank {
		ub := upperBound(v.rep, key)
		if ub > 0 && v.rep[ub-1] == key {
			return ub - 1, true
		}
		return ub, false
	}
	if v.isLeaf() {
		return iindex.InterpolationSearch(v.rep, key)
	}
	return iindex.Find(v.rep, &v.idx, key)
}

// upperBound is a plain binary search: the number of rep keys <= key.
func upperBound[K iindex.Numeric](rep []K, key K) int {
	lo, hi := 0, len(rep)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rep[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findIndebted resolves a debt-record key to the topmost over-budget
// node on its root-to-leaf path, or nil when the record is stale (an
// enclosing rebuild already repaid the debt). Rebuilding the topmost
// such node repays every deeper debt under it in one stroke; records
// of those deeper subtrees then resolve to nil and are dropped.
// Staleness is exact: a record's key physically stays inside the
// subtree it was recorded for (inner reps are immutable, leaf reps
// only grow) until a rebuild removes the subtree, so the walk cannot
// stop short of a still-indebted recordee.
func (t *Tree[K, V]) findIndebted(key K) *node[K, V] {
	v := t.root
	for v != nil {
		if t.rebuildDue(v, 0) {
			return v
		}
		if v.isLeaf() {
			return nil
		}
		pos, found := t.stepPos(v, key)
		if found {
			return nil
		}
		v = v.children[pos]
	}
	return nil
}

// rebuildNode rebuilds subtree v ideally from its live contents — the
// drain-path analog of rebuildMerged/rebuildSubtracted, with no batch
// riding along — returning the new subtree root (nil when every key
// was logically dead).
func (t *Tree[K, V]) rebuildNode(v *node[K, V]) *node[K, V] {
	t0 := obsNow(t.obs)
	flatK, flatV := t.flattenScratch(v)
	n := len(flatK)
	root := t.labeledBuild(flatK, flatV)
	t.ar.putKV(flatK, flatV)
	t.recordRebuild(t0, n)
	return root
}

// drainDebt synchronously repays deferred debt, highest priority
// first, until the heap empties or the next victim would push the
// epoch past its budget. A victim larger than the whole budget
// therefore starves: no epoch can afford it, and the drain stops at it,
// so the records behind it wait too (see ARCHITECTURE.md, "Rebuild
// scheduling"). Owning goroutine only.
func (t *Tree[K, V]) drainDebt() {
	s := t.sched
	for {
		rec, ok := s.peekTop()
		if !ok {
			return
		}
		v := t.findIndebted(rec.key)
		if v == nil {
			s.removeRecord(rec.key)
			continue
		}
		s.mu.Lock()
		fits := s.spent+v.size <= s.budget
		if fits {
			s.spent += v.size
		}
		s.mu.Unlock()
		if !fits {
			return
		}
		repl := t.rebuildNode(v)
		if !t.replaceAtKey(rec.key, v, repl) {
			// Unreachable: replaceAtKey retraces findIndebted's walk and
			// nothing ran in between. Fail safe all the same: leave the
			// record for the next drain and the unlinked build to the GC.
			return
		}
		s.removeRecord(rec.key)
	}
}

// --- epoch bracketing ---

// beginBatch opens the per-batch accounting window of a standalone
// batched mutation: reset the budget and run one drain step. Inside a
// combiner epoch (epochOpen) the bracket is wider — BeginRebuildEpoch
// already reset the budget, and the epoch's ApplyResolved spends
// it — so this is a no-op.
func (t *Tree[K, V]) beginBatch() {
	s := t.sched
	if s == nil {
		return
	}
	s.mu.Lock()
	open := s.epochOpen
	if !open {
		s.spent = 0
	}
	s.mu.Unlock()
	if !open {
		t.drainDebt()
	}
}

// BeginRebuildEpoch opens one combining epoch's rebuild budget. The
// combiner calls it before executing the epoch (combine.Engine);
// every rebuild the epoch's write traversals perform — plus the
// EndRebuildEpoch drain — then shares one RebuildBudgetPerEpoch cap.
// No-op without a scheduler.
func (t *Tree[K, V]) BeginRebuildEpoch() {
	s := t.sched
	if s == nil {
		return
	}
	s.mu.Lock()
	s.epochOpen = true
	s.spent = 0
	s.mu.Unlock()
}

// EndRebuildEpoch closes the epoch's budget window after the epoch has
// published, draining debt up to the remaining budget. Returns the
// rebuild keys the epoch spent — the number the per-epoch cap bounds —
// and the outstanding debt, both of which feed the epoch trace. No-op
// (0, 0) without a scheduler.
func (t *Tree[K, V]) EndRebuildEpoch() (spentKeys, debtKeys int) {
	s := t.sched
	if s == nil {
		return 0, 0
	}
	t.drainDebt()
	s.mu.Lock()
	spentKeys = s.spent
	s.epochOpen = false
	s.mu.Unlock()
	return spentKeys, int(s.c.debtKeys.Load())
}
