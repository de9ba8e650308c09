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
// C·initSize. Debt is repaid in later epochs — synchronously from the
// debt-priority heap (bounded-sync mode), or on a background goroutine
// that rebuilds from the frozen published tree and splices the result
// in at an epoch boundary (async mode, Config.AsyncRebuild, publishing
// trees only).
//
// Concurrency: the heap, the byKey index, and the spent counter are
// guarded by mu because rebuild triggers fire inside the parallel
// batch recursion (insertRec/removeRec fan out across pool workers).
// Everything else — epoch bracketing, drains, async kick/splice — runs
// on the goroutine that owns the tree (the combiner, in the published
// setup), like every other mutating method. The async worker itself
// touches only its job and the tree's arena, pool and metric handles, all
// of which are concurrency-safe.

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
	debtKeys      atomic.Int64 // outstanding debt (sum of record priorities)
	deferredKeys  atomic.Int64 // cumulative rebuild keys whose work was deferred
	asyncRuns     atomic.Int64 // background rebuilds launched
	spliceRetries atomic.Int64 // async splices abandoned (subtree changed)
}

// asyncResult is what one background rebuild hands back: the rebuilt
// subtree (nil when every key of the old subtree was logically dead)
// and the number of keys it laid down.
type asyncResult[K iindex.Numeric, V any] struct {
	built *node[K, V]
	keys  int
}

// asyncJob is one in-flight background rebuild. The owning goroutine
// (combiner) fills the capture fields at launch; the worker publishes
// exactly once through done. old is safe for the worker to read without
// synchronization beyond done: it was captured from a just-published
// tree, so every node in it is frozen — later mutations copy before
// writing — and the pin keeps its chunk storage out of the recycler.
type asyncJob[K iindex.Numeric, V any] struct {
	key  K           // debt-record key, for the splice walk
	old  *node[K, V] // captured subtree root; identity = unchanged
	gen  uint64      // writeGen at capture; the build's node generation
	pin  ReaderPin
	done atomic.Pointer[asyncResult[K, V]]
}

// rebuildSched is the per-tree scheduler state. nil (budget unset)
// means eager rebuilds everywhere.
type rebuildSched[K iindex.Numeric, V any] struct {
	budget int  // max rebuild keys per epoch/batch
	async  bool // drain debt on a background goroutine

	mu        sync.Mutex
	spent     int  // rebuild keys reserved in the current epoch/batch
	epochOpen bool // a combiner epoch brackets the current batches
	heap      []debtRec[K]
	byKey     map[K]int // record key → heap position

	c schedCounters

	job *asyncJob[K, V] // in-flight background rebuild, nil if none
}

// newSched builds the scheduler for cfg, nil when no budget is set.
func newSched[K iindex.Numeric, V any](cfg Config) *rebuildSched[K, V] {
	if cfg.RebuildBudgetPerEpoch <= 0 {
		return nil
	}
	s := &rebuildSched[K, V]{
		budget: cfg.RebuildBudgetPerEpoch,
		async:  cfg.AsyncRebuild,
		byKey:  make(map[K]int),
	}
	s.c.observe(cfg.Metrics)
	return s
}

// --- debt heap (max-heap by debt, byKey position index) ---
// All heap mutators run with s.mu held.

func (s *rebuildSched[K, V]) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.byKey[h[i].key] = i
	s.byKey[h[j].key] = j
}

func (s *rebuildSched[K, V]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].debt >= s.heap[i].debt {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *rebuildSched[K, V]) siftDown(i int) {
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

func (s *rebuildSched[K, V]) heapPush(rec debtRec[K]) {
	s.heap = append(s.heap, rec)
	s.byKey[rec.key] = len(s.heap) - 1
	s.siftUp(len(s.heap) - 1)
}

// removeAt drops the record at heap position i, keeping the debt gauge
// in step.
func (s *rebuildSched[K, V]) removeAt(i int) {
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
func (s *rebuildSched[K, V]) removeRecord(key K) {
	s.mu.Lock()
	if i, ok := s.byKey[key]; ok {
		s.removeAt(i)
	}
	s.mu.Unlock()
}

// peekTop returns the highest-debt record without removing it.
func (s *rebuildSched[K, V]) peekTop() (debtRec[K], bool) {
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
// was logically dead) and the number of keys laid down.
func (t *Tree[K, V]) rebuildNode(v *node[K, V]) (*node[K, V], int) {
	t0 := obsNow(t.obs)
	flatK, flatV := t.flattenScratch(v)
	n := len(flatK)
	root := t.labeledBuild(flatK, flatV)
	t.ar.putKV(flatK, flatV)
	t.recordRebuild(t0, n)
	return root, n
}

// drainDebt synchronously repays deferred debt, highest priority
// first, until the heap empties or the next victim would push the
// epoch past its budget. A victim larger than the whole budget
// therefore starves in bounded-sync mode — the documented tradeoff
// that async mode exists to remove. Owning goroutine only.
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
		repl, _ := t.rebuildNode(v)
		if !t.replaceAtKey(rec.key, v, repl) {
			// Unreachable on the owning goroutine — nothing ran between
			// findIndebted and the splice — but fail safe: recycle the
			// orphan build and leave the record for the next drain.
			t.discardBuilt(repl)
			return
		}
		s.removeRecord(rec.key)
	}
}

// --- async drain (owning goroutine kicks/splices; worker builds) ---

// tickAsync advances the background drain by one step: splice a
// finished job if one is waiting, then — when the live tree is clean,
// i.e. identical to the published version with every node frozen —
// launch the next job from the top of the debt heap. Owning goroutine
// only; called at epoch boundaries.
func (t *Tree[K, V]) tickAsync() {
	s := t.sched
	if j := s.job; j != nil {
		res := j.done.Load()
		if res == nil {
			return // still building
		}
		s.job = nil
		if t.replaceAtKey(j.key, j.old, res.built) {
			s.removeRecord(j.key)
		} else {
			// The subtree changed while the worker built (its root was
			// COW-replaced), so the build describes a stale state: count
			// the retry and recycle the never-published chunk directly —
			// no grace period needed, no reader ever saw it.
			s.c.spliceRetries.Add(1)
			t.discardBuilt(res.built)
		}
	}
	if t.dirty {
		// Unpublished mutations exist, so live nodes of the current
		// generation could mutate in place under a worker — pointer
		// identity would no longer mean "unchanged". Kick next epoch,
		// right after a publish, when everything is frozen again.
		return
	}
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
		j := &asyncJob[K, V]{key: rec.key, old: v, gen: t.writeGen, pin: t.PinReader()}
		s.job = j
		s.c.asyncRuns.Add(1)
		go t.runAsyncRebuild(j)
		return
	}
}

// runAsyncRebuild is the worker: flatten the captured (frozen) subtree
// and build its ideal replacement off the critical path, then hand the
// result back for the next epoch boundary to splice. It works through
// a detached tree handle so the build is attributed to the capture
// generation and draws exact-size GC-managed chunks (mv nil), while
// sharing the arena free lists, pool, and metric handles — all safe
// for concurrent use. The pin covers every read of the old subtree's
// chunk storage and is released before the result is published, so an
// abandoned job (frontend closed mid-build) cannot wedge reclamation.
func (t *Tree[K, V]) runAsyncRebuild(j *asyncJob[K, V]) {
	bt := &Tree[K, V]{cfg: t.cfg, pool: t.pool, ar: t.ar, obs: t.obs, writeGen: j.gen}
	built, n := bt.rebuildNode(j.old)
	j.pin.Release()
	j.done.Store(&asyncResult[K, V]{built: built, keys: n})
}

// --- epoch bracketing ---

// beginBatch opens the per-batch accounting window of a standalone
// batched mutation: reset the budget and run one drain step. Inside a
// combiner epoch (epochOpen) the bracket is wider — BeginRebuildEpoch
// already reset the budget, and the epoch's PutBatched and
// RemoveBatched share it — so this is a no-op.
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
	if open {
		return
	}
	if s.async && t.mv != nil {
		t.tickAsync()
	} else {
		t.drainDebt()
	}
}

// BeginRebuildEpoch opens one combining epoch's rebuild budget. The
// combiner calls it before executing the epoch (combine.Engine);
// every rebuild the epoch's write traversals perform — plus the
// EndRebuildEpoch drain — then shares one RebuildBudgetPerEpoch cap.
// In async mode a finished background rebuild is spliced here, before
// the epoch's reads, so the epoch already serves the repaired shape.
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
	if s.async && t.mv != nil {
		t.tickAsync()
	}
}

// EndRebuildEpoch closes the epoch's budget window after the epoch has
// published: bounded-sync mode drains debt up to the remaining budget;
// async mode splices/kicks background work (the post-publish moment is
// exactly when the live tree is frozen, so a job can launch). Returns
// the rebuild keys the epoch spent — the number the per-epoch cap
// bounds — and the outstanding debt, both of which feed the epoch
// trace. No-op (0, 0) without a scheduler.
func (t *Tree[K, V]) EndRebuildEpoch() (spentKeys, debtKeys int) {
	s := t.sched
	if s == nil {
		return 0, 0
	}
	if s.async && t.mv != nil {
		t.tickAsync()
	} else {
		t.drainDebt()
	}
	s.mu.Lock()
	spentKeys = s.spent
	s.epochOpen = false
	s.mu.Unlock()
	return spentKeys, int(s.c.debtKeys.Load())
}
