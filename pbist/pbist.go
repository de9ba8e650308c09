// Package pbist provides a sorted set and a sorted map of numeric
// keys backed by a Parallel-Batched Interpolation Search Tree, the
// data structure of "Parallel-batched Interpolation Search Tree"
// (Aksenov, Kokorin, Martsenyuk; PACT 2023).
//
// Three views share one engine:
//
//   - Tree[K] is the sorted set: single-key operations (Contains,
//     Insert, Remove), batched operations (ContainsBatch, InsertBatch,
//     RemoveBatch), slice algebra (Intersection, Difference), and
//     whole-tree algebra (Union, Intersect, DiffTree, SymDiff, Split,
//     Join — non-mutating, returning new trees).
//   - Map[K, V] is the sorted map: the same batched machinery carrying
//     a value with every key (Get/GetBatch, Put/PutBatch,
//     Delete/DeleteBatch) plus ordered iteration (All, Ascend),
//     value-carrying Min/Max/Select/Range, and the same whole-tree
//     algebra with an explicit MergePolicy on Union/Intersect.
//   - Sharded[K, V] is the concurrent frontend: the map engine served
//     to arbitrarily many goroutines, writes through combining queues
//     and reads from published versions, for workloads where
//     operations arrive one key at a time from concurrent clients
//     rather than pre-assembled into batches. The key space is
//     partitioned across N independent engines, each behind its own
//     combiner, all sharing one worker pool — per-key linearizable,
//     per-shard atomic. Concurrent[K, V] is the one-shard case
//     (NewConcurrent): the paper's single tree behind one combiner,
//     where every batch is atomic.
//
// All views run every batch through the same parallel-batched traversal:
//
//	t := pbist.New[int64](pbist.Options{})
//	t.InsertBatch(ids)                // A ← A ∪ ids
//	hits := t.ContainsBatch(queries)  // membership vector
//	t.RemoveBatch(expired)            // A ← A \ expired
//
//	m := pbist.NewMap[int64, string](pbist.Options{})
//	m.PutBatch(ids, names)            // upsert, last occurrence wins
//	names, ok := m.GetBatch(queries)  // values + found vector
//	for id, name := range m.Ascend(lo, hi) { ... }
//
// When keys are drawn from a smooth distribution (uniform, for
// example), a batch of m operations against n stored keys costs
// expected O(m·log log n) work — asymptotically better than the
// O(m·log n) of balanced binary trees — and polylogarithmic span, so
// throughput scales with cores. The set view is the V = struct{}
// instantiation of the same core tree, so it pays nothing for the
// value plumbing.
//
// Batched methods accept arbitrary key slices: unsorted input is
// sorted and duplicated keys are coalesced internally (ContainsBatch
// and GetBatch still answer positionally for every input element, and
// PutBatch resolves duplicate keys in one batch to the last
// occurrence). Callers that can guarantee sorted duplicate-free
// batches set Options.AssumeSorted to skip normalization.
//
// # Concurrency model
//
// Tree and Map are NOT safe for concurrent use: the parallel-batched
// model runs one batch at a time on the caller's goroutine and
// parallelizes inside the batch. They are the right view when the
// application already holds its work as batches — bulk loads,
// analytical joins, periodic merges — because they spend zero
// synchronization per operation.
//
// Sharded is the view for the opposite shape: many goroutines each
// issuing individual operations. Every method is safe for concurrent
// use, and every single-key operation is linearizable. Each shard's
// combiner goroutine coalesces every write submitted concurrently into
// an epoch, executes the epoch as one batched presence traversal plus
// one batched write traversal (with full intra-batch parallelism), and
// routes each result back to its caller. The more writing clients, the
// bigger the epochs, so throughput grows where a lock around a Map
// would collapse — while a single isolated writer pays queue latency
// for no batching benefit. Reads never queue (see below). Rule of
// thumb: own the batch, use Tree/Map; share the structure, use one
// shard (Concurrent); outgrow one combiner's one epoch at a time, add
// shards.
//
// A write batch is atomic per shard, not across shards, so with one
// shard every batch is atomic. Stats and Trace gather per-shard
// snapshots with no cross-shard fence — each shard's counters are read
// while the other shards keep executing, so the result is consistent
// per shard only. (Data reads are stronger: GetBatch, ContainsBatch,
// Items, Keys, Len, Range, Ascend, and Snapshot each take one atomic
// cut of the published versions of the shards they read, so they are
// mutually atomic.)
//
// # Wait-free reads and snapshots (MVCC)
//
// The concurrent frontend additionally publishes an immutable version
// of each shard's tree after every mutating epoch — one atomic pointer store,
// sequenced before the epoch's callers are woken. Every read is served
// from those versions; the combining queues carry only writes and
// Flush. Get and Contains are wait-free (bounded steps, no locks, no
// retries against writers); GetBatch, ContainsBatch, Len, Keys, Items,
// Range, Ascend, and Snapshot pin the versions they walk and re-load
// them only until the cut is stable. All are linearizable against completed operations — once a
// Put has returned, every later version read observes it; an
// operation still in flight may not be visible until its epoch
// publishes. A one-shard Snapshot is O(changed), not a clone: the
// frozen Map shares unrebuilt chunk storage with the live tree, and
// the engine's copy-on-rebuild generations guarantee the live tree
// never mutates storage a published version can still reach.
//
// Reclamation contract: storage retired by a rebuild enters a grace
// ring and is recycled only after every reader pinned in the
// retiring era has left (two-band era counters) — a fast read or
// snapshot iteration never observes recycled memory, with no
// stop-the-world and no per-read allocation. Durable snapshots
// extend the grace transitively: chunks a live Snapshot can reach
// are handed to the garbage collector rather than recycled. Reads
// survive Close — a snapshot taken before a frontend drains stays
// valid after, and Get keeps answering from the final versions — while
// writes and Flush on a closed frontend panic.
//
// # Rebuilds
//
// The engine keeps itself balanced by rebuilding any subtree that has
// absorbed more than RebuildFactor times its built size in
// modifications. The rebuild runs inside the batch (or combining
// epoch) that crossed the threshold, as the paper's §7.1 does:
// amortized O(log log n) work per key, with an occasional O(n) stall
// when the root trips. Epoch traces report the keys each epoch's
// rebuilds laid down; see ARCHITECTURE.md's "Rebuilds" section.
//
// # Observability
//
// Setting Options.Metrics to a Metrics registry (NewMetrics) turns on
// engine-wide instrumentation: combining-epoch counters and
// client-observed latency histograms, core rebuild events, arena
// retention gauges, and shard scatter/filter/cut metrics, exported
// point-in-time via Snapshot, WriteJSON, or PublishExpvar. Like a
// Sharded Stats call, a Snapshot is gathered without stopping the
// engine: consistent per metric, not linearized across metrics. A nil
// registry (the default) disables all recording at zero cost. The
// concurrent frontend additionally retains a bounded ring of structured
// epoch traces readable through Trace; see ARCHITECTURE.md's
// Observability section for the metric catalog.
package pbist

import (
	"iter"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/parallel"
)

// Key is the constraint on tree keys: ordered types with an
// order-preserving conversion to float64, which interpolation search
// needs to estimate positions numerically.
type Key interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Options configures a Tree or a Map. The zero value gives sensible
// defaults; the same Options value works for both views.
//
// Every tree owns a scratch arena that recycles its internal
// temporaries (position buffers, membership side arrays, flatten and
// merge buffers) across batched operations and rebuilds, which keeps
// steady-state batches nearly allocation-free. The arena never affects
// results or aliasing: slices passed in are never retained (bulk loads
// and batched writes copy keys and values into tree-owned chunk
// storage), and slices handed out (Keys, Items, Range, batch results)
// are always freshly allocated. Recycled buffers may briefly retain
// copies of removed values until their next reuse, bounded by the
// free lists' depth.
type Options struct {
	// Workers bounds the parallelism of batched operations. 0 selects
	// GOMAXPROCS; 1 makes every operation sequential.
	Workers int
	// LeafCap is the paper's H: subtrees at most this large are stored
	// as plain sorted arrays. Default 64: at 16, trees of 2^17 to 2^20
	// keys grew an extra level of leaves of about 4 keys.
	LeafCap int
	// RebuildFactor is the paper's C: a subtree is rebuilt once it has
	// absorbed more than C times its built size in modifications.
	// Default 2.
	RebuildFactor int
	// RankTraversal switches batched traversals from per-key
	// interpolation search to merge-based ranking. Interpolation is
	// faster on smooth inputs; ranking is distribution-insensitive.
	RankTraversal bool
	// AssumeSorted promises that every batch passed to the tree is
	// already sorted and duplicate-free, skipping normalization.
	// Results are undefined if the promise is broken; use only on
	// trusted input paths.
	AssumeSorted bool
	// Metrics attaches the engine to an observability registry:
	// rebuild events, arena retention and hit rates, combining epoch
	// phases, and client-observed latency all record into it, and the
	// concurrent frontend additionally retains epoch traces readable
	// through Trace. One registry may be shared across any number of
	// views. nil (the default) disables all recording at zero cost on
	// the hot paths. See Metrics and ARCHITECTURE.md's Observability
	// section for the metric catalog.
	Metrics *Metrics

	// disableReuse turns scratch recycling off in every tree built
	// from these options (core.Config.DisableBufferReuse), so the
	// package's tests can check that results never depend on it.
	disableReuse bool
}

func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		LeafCap:            o.LeafCap,
		RebuildFactor:      o.RebuildFactor,
		DisableBufferReuse: o.disableReuse,
		Metrics:            o.Metrics,
	}
	if o.RankTraversal {
		cfg.Traverse = core.TraverseRank
	}
	return cfg
}

func (o Options) pool() *parallel.Pool {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return parallel.NewPool(w)
}

// view is the shared half of both public types: the core tree, its
// pool, and the normalization policy. Tree and Map embed it, so
// configuration, statistics, worker control, and the key-only queries
// exist once rather than per view.
type view[K Key, V any] struct {
	t            *core.Tree[K, V]
	pool         *parallel.Pool
	assumeSorted bool
}

// Len reports the number of keys stored.
func (vw *view[K, V]) Len() int { return vw.t.Len() }

// Contains reports whether key is present.
func (vw *view[K, V]) Contains(key K) bool { return vw.t.Contains(key) }

// Keys returns the keys in ascending order.
func (vw *view[K, V]) Keys() []K { return vw.t.Keys() }

// ContainsBatch reports membership for every element of keys:
// result[i] corresponds to keys[i], whatever the input order, and
// duplicate inputs each receive their (identical) answer.
func (vw *view[K, V]) ContainsBatch(keys []K) []bool {
	if len(keys) == 0 {
		return nil
	}
	if vw.assumeSorted || isSortedUnique(keys) {
		return vw.t.ContainsBatched(keys)
	}
	// Query the sorted unique view, then scatter answers back to the
	// caller's positions.
	sorted := parallel.SortedDedup(vw.pool, slices.Clone(keys))
	hits := vw.t.ContainsBatched(sorted)
	out := make([]bool, len(keys))
	parallel.For(vw.pool, len(keys), 0, func(i int) {
		j, _ := slices.BinarySearch(sorted, keys[i])
		out[i] = hits[j]
	})
	return out
}

// CountRange reports how many keys lie in [lo, hi] without
// materializing them.
func (vw *view[K, V]) CountRange(lo, hi K) int { return vw.t.CountRange(lo, hi) }

// RankOf reports the number of keys strictly less than key.
func (vw *view[K, V]) RankOf(key K) int { return vw.t.RankOf(key) }

// Workers reports the parallelism bound of batched operations.
func (vw *view[K, V]) Workers() int { return vw.pool.Workers() }

// SetWorkers rebinds the view to a pool of n workers (0 selects
// GOMAXPROCS). Existing contents are untouched; only subsequent
// operations are affected.
func (vw *view[K, V]) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	vw.pool = parallel.NewPool(n)
	vw.t.SetPool(vw.pool)
}

// Stats reports structural statistics (shape, balance, and memory of
// the interpolation indexes) together with the arena counters of the
// memory subsystem.
func (vw *view[K, V]) Stats() Stats {
	s := vw.t.Stats()
	return Stats{
		LiveKeys:      s.LiveKeys,
		DeadKeys:      s.DeadKeys,
		Nodes:         s.Nodes,
		Leaves:        s.Leaves,
		Height:        s.Height,
		RootRepLen:    s.RootRepLen,
		MaxLeafLen:    s.MaxLeafLen,
		IndexBytes:    s.IndexBytes,
		ScratchGets:   s.ScratchGets,
		ScratchReuses: s.ScratchReuses,
		ChunkBuilds:   s.ChunkBuilds,
		ChunkKeys:     s.ChunkKeys,
		LeafGrows:     s.LeafGrows,
	}
}

// Height reports the number of nodes on the longest root-to-leaf
// path. For an ideally balanced tree of n keys this is O(log log n).
func (vw *view[K, V]) Height() int { return vw.t.Height() }

// normalize returns keys as a sorted duplicate-free slice, copying
// when mutation would be observable by the caller. When the input is
// already sorted (or promised so via AssumeSorted), the caller's
// slice is passed through as-is — safe because no core operation
// retains a batch slice: bulk loads copy keys into tree-owned chunk
// storage at construction, and batched updates merge into leaf arrays
// the tree already owns (or fresh chunk storage on rebuild).
func (vw *view[K, V]) normalize(keys []K) []K {
	if vw.assumeSorted || isSortedUnique(keys) {
		return keys
	}
	cp := slices.Clone(keys)
	return parallel.SortedDedup(vw.pool, cp)
}

// removeBatch deletes every element of keys, returning how many were
// actually present. Tree.RemoveBatch and Map.DeleteBatch are its
// public names.
func (vw *view[K, V]) removeBatch(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	return vw.t.RemoveBatched(vw.normalize(keys))
}

func isSortedUnique[K Key](keys []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return false
		}
	}
	return true
}

// Tree is the set view: a parallel-batched interpolation search tree
// over keys of type K, without values. Create one with New or
// NewFromKeys.
type Tree[K Key] struct {
	view[K, struct{}]
}

// New returns an empty set.
func New[K Key](opts Options) *Tree[K] {
	p := opts.pool()
	tr := &Tree[K]{}
	tr.t = core.New[K, struct{}](opts.coreConfig(), p)
	tr.pool = p
	tr.assumeSorted = opts.AssumeSorted
	return tr
}

// NewFromKeys returns a set containing keys, bulk-loaded in O(n) work
// into an ideally balanced shape. The input slice is not retained —
// even on the already-sorted (or AssumeSorted) fast path, which hands
// the slice to the bulk loader without copying first, construction
// copies every key into tree-owned chunk storage — and it need not be
// sorted (unless Options.AssumeSorted, in which case it must be
// sorted and duplicate-free).
func NewFromKeys[K Key](opts Options, keys []K) *Tree[K] {
	p := opts.pool()
	tr := &Tree[K]{}
	tr.pool = p
	tr.assumeSorted = opts.AssumeSorted
	tr.t = core.NewFromSorted(opts.coreConfig(), p, tr.normalize(keys))
	return tr
}

// Clone returns a deep, fully detached copy of the set: one parallel
// flatten plus one chunked ideal rebuild (near-free on top of the
// rebuild machinery), sharing the receiver's options and worker pool
// but nothing else — mutations on either side are never visible
// through the other. The clone is ideally balanced even when the
// receiver is mid-churn, so Clone doubles as compaction.
func (tr *Tree[K]) Clone() *Tree[K] {
	cp := &Tree[K]{}
	cp.t = tr.t.Clone()
	cp.pool = tr.pool
	cp.assumeSorted = tr.assumeSorted
	return cp
}

// Insert adds key, reporting whether it was absent.
func (tr *Tree[K]) Insert(key K) bool { return tr.t.Insert(key) }

// Remove deletes key, reporting whether it was present.
func (tr *Tree[K]) Remove(key K) bool { return tr.t.Remove(key) }

// InsertBatch adds every element of keys, returning how many were
// actually new. It computes the set union A ← A ∪ keys.
func (tr *Tree[K]) InsertBatch(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	return tr.t.InsertBatched(tr.normalize(keys))
}

// RemoveBatch deletes every element of keys, returning how many were
// actually present. It computes the set difference A ← A \ keys.
func (tr *Tree[K]) RemoveBatch(keys []K) int { return tr.removeBatch(keys) }

// Intersection returns the elements of keys that are present in the
// set, sorted and duplicate-free: A ∩ keys. The set is not modified.
func (tr *Tree[K]) Intersection(keys []K) []K {
	if len(keys) == 0 {
		return nil
	}
	norm := tr.normalize(keys)
	hits := tr.t.ContainsBatched(norm)
	return parallel.FilterIndex(tr.pool, norm, func(i int) bool { return hits[i] })
}

// Difference returns the elements of the set that do not occur in
// keys, sorted: A \ keys. It is RemoveBatch without the mutation. The
// batch goes through the same normalize fast path as every other
// batched method — already-sorted duplicate-free input is used as-is,
// never cloned or re-sorted — and is subtracted from the flattened set
// in one parallel pass. The set is not modified.
func (tr *Tree[K]) Difference(keys []K) []K {
	if len(keys) == 0 || tr.Len() == 0 {
		return tr.Keys()
	}
	return parallel.Difference(tr.pool, tr.Keys(), tr.normalize(keys))
}

// Min returns the smallest key in the set; ok is false when empty.
func (tr *Tree[K]) Min() (key K, ok bool) {
	key, _, ok = tr.t.Min()
	return key, ok
}

// Max returns the largest key in the set; ok is false when empty.
func (tr *Tree[K]) Max() (key K, ok bool) {
	key, _, ok = tr.t.Max()
	return key, ok
}

// Range returns the keys in [lo, hi], ascending.
func (tr *Tree[K]) Range(lo, hi K) []K { return tr.t.Range(lo, hi) }

// Select returns the idx-th smallest key (0-based); ok is false when
// idx is out of range.
func (tr *Tree[K]) Select(idx int) (key K, ok bool) {
	key, _, ok = tr.t.Select(idx)
	return key, ok
}

// All returns an in-order iterator over the keys of the set.
func (tr *Tree[K]) All() iter.Seq[K] {
	return func(yield func(K) bool) {
		for k := range tr.t.All() {
			if !yield(k) {
				return
			}
		}
	}
}

// Ascend returns an in-order iterator over the keys in [lo, hi].
func (tr *Tree[K]) Ascend(lo, hi K) iter.Seq[K] {
	return func(yield func(K) bool) {
		for k := range tr.t.Ascend(lo, hi) {
			if !yield(k) {
				return
			}
		}
	}
}

// Stats summarizes the structure of a Tree or Map, plus the counters
// of its scratch arena (see Options).
type Stats struct {
	LiveKeys   int // keys logically stored
	DeadKeys   int // logically removed keys awaiting a rebuild
	Nodes      int // total nodes, leaves included
	Leaves     int // leaf nodes
	Height     int // nodes on the longest root-to-leaf path; 0 when empty
	RootRepLen int // length of the root's Rep array (Θ(√n) when balanced)
	MaxLeafLen int // longest leaf array
	IndexBytes int // memory held by interpolation indexes

	// ScratchGets counts internal scratch-buffer requests since
	// construction and ScratchReuses how many were served by a
	// recycled buffer; their ratio is the arena hit rate. ChunkBuilds
	// counts chunked subtree (re)builds and ChunkKeys the key slots
	// those builds laid out contiguously.
	ScratchGets   int64
	ScratchReuses int64
	ChunkBuilds   int64
	ChunkKeys     int64

	// LeafGrows counts leaf merges that outgrew their arrays and
	// reallocated, each with 1.5 times its key count in capacity.
	LeafGrows int64
}
