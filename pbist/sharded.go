package pbist

import (
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/shard"
)

// PartitionPolicy selects how Sharded assigns keys to shards.
type PartitionPolicy int8

const (
	// PartitionDefault picks range partitioning wherever boundaries
	// are derivable (NewShardedFromItems fits quantile boundaries,
	// NewShardedRange takes an explicit span) and hash partitioning
	// from the boundless NewSharded constructor.
	PartitionDefault PartitionPolicy = iota
	// PartitionRange assigns each shard a contiguous key interval.
	// Shard order then refines key order, so Range, Ascend, Keys,
	// Items, and Snapshot concatenate per-shard results instead of
	// merging. Balance is only as good as the boundaries; skewed
	// inserts outside the fitted span pile onto the edge shards.
	PartitionRange
	// PartitionHash assigns shards by a mixed 64-bit hash of the key:
	// balance is immune to key-space skew, but ordered reads pay an
	// N-way merge.
	PartitionHash
)

// ShardedOptions configures a Sharded frontend: the per-shard engine
// and combiner settings (ConcurrentOptions) plus the shard layout.
// The zero value gives sensible defaults.
type ShardedOptions struct {
	ConcurrentOptions
	// Shards is the number of independent trees (each with its own
	// combiner goroutine). Default 8.
	Shards int
	// Partition selects the key-to-shard policy; see the constants.
	Partition PartitionPolicy
	// PointFilter enables a per-shard Bloom filter of filterBits bits
	// that answers point lookup misses without walking the shard's
	// published version: keys are added on every insert (never
	// removed), so a filter miss proves the key was never inserted into
	// that shard. Worth it for miss-heavy point workloads; off by
	// default.
	PointFilter bool
	// PrivateArenas is ignored: every shard tree always owns its
	// scratch arena, and every combiner its per-epoch arrays.
	//
	// Deprecated: no longer has any effect.
	PrivateArenas bool
}

func (o ShardedOptions) withDefaults() ShardedOptions {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	return o
}

// filterBits is the size of a shard's Bloom filter in bits (256 KiB),
// about 8 bits per key for shards of up to 2^18 keys.
const filterBits = 1 << 21

// Sharded is the concurrent frontend: a Map[K, V] engine served to
// arbitrarily many goroutines. It runs N independent core trees
// (ShardedOptions.Shards), each behind its own combining queue, all
// sharing one worker pool. Unlike Tree and Map — which run one
// batched operation at a time on the caller's goroutine — every
// method of Sharded is safe for concurrent use. Concurrent is the
// one-shard case: the paper's single batched tree.
//
// The combining queues serve writes only. Each shard's combiner
// goroutine drains its queue in epochs: everything submitted while the
// previous epoch executed is coalesced, resolved with one batched
// presence traversal plus one batched write traversal on the shard's
// tree (full intra-batch parallelism), and the per-operation results
// are routed back to the blocked callers. Under many clients this
// recovers the batched O(m·log log n) economics for writes that arrive
// one key at a time. A partition policy routes every key to exactly
// one shard, so point writes go straight to the owning shard's
// combiner, and batched writes are split into per-shard sub-batches
// that execute as concurrent epochs — up to N in flight at once.
//
// Consistency: each key lives on exactly one shard, so ALL operations
// on a single key are linearizable. Writes of one epoch take effect in
// submission order, and writes to the same key resolve last-wins.
// Batched writes (PutBatch, DeleteBatch) are atomic per shard but not
// across shards: another client can observe one shard's half of a
// batch before the other shard's half lands. With one shard every
// batch is single-shard and therefore atomic, so workloads that need
// cross-key atomic writes use one shard; see the decision table in the
// README.
//
// Every read — Get, Contains, GetBatch, ContainsBatch, Len, Keys,
// Items, Range, Ascend, and Snapshot — is served from the immutable
// versions the combiners publish after every epoch: no queue round
// trip, no blocking on writers, and still linearizable with the
// combined writes (a completed operation is always visible, because
// publication precedes client wakeup). The batched and whole-structure
// reads are mutually atomic: each captures the published versions of
// the shard trees it reads at a single instant (see collectCut), so two
// of them taken back-to-back can never disagree about which writes
// they reflect. Stats and Trace read the combiners' counters without a
// fence.
//
// Create one with NewSharded, NewShardedRange, NewShardedFromItems,
// NewConcurrent, or NewConcurrentFromItems; call Close when done to
// stop the combiner goroutines. Writes and Flush on a closed frontend
// panic; the reads (Get, Contains, GetBatch, ContainsBatch, Len, Keys,
// Items, Range, Ascend, Snapshot) keep serving the final published
// state.
type Sharded[K Key, V any] struct {
	part shard.Partitioner[K]
	cbs  []*combine.Combiner[K, V]
	// trees[i] is the engine behind cbs[i], retained for the version
	// read paths: per-shard wait-free point reads (Get) and the
	// cross-shard atomic cut (collectCut) both read the versions the
	// shard's combiner publishes, never the combining queue.
	trees   []*core.Tree[K, V]
	filters []*shard.Bloom // per shard; nil when PointFilter is off
	pool    *parallel.Pool
	opts    ShardedOptions

	short atomic.Int64 // point lookups answered by a filter
	obs   *shard.Obs   // nil unless Options.Metrics was set
}

// NewSharded returns an empty sharded frontend. With no data and no
// span to fit range boundaries to, PartitionDefault selects hash
// partitioning; PartitionRange panics here — use NewShardedRange
// (explicit span) or NewShardedFromItems (fitted quantiles) instead.
func NewSharded[K Key, V any](opts ShardedOptions) *Sharded[K, V] {
	opts = opts.withDefaults()
	if opts.Partition == PartitionRange {
		panic("pbist: NewSharded cannot derive range boundaries; use NewShardedRange or NewShardedFromItems")
	}
	return newSharded[K, V](opts, shard.NewHashed[K](opts.Shards), nil, nil)
}

// NewShardedRange returns an empty sharded frontend that partitions
// [lo, hi] into equal-width key intervals — the right construction
// when keys are roughly uniform over a known span. Keys outside the
// span are owned by the edge shards. Panics if opts.Partition is
// PartitionHash (the explicit span would be silently ignored).
func NewShardedRange[K Key, V any](opts ShardedOptions, lo, hi K) *Sharded[K, V] {
	opts = opts.withDefaults()
	if opts.Partition == PartitionHash {
		panic("pbist: NewShardedRange conflicts with PartitionHash; use NewSharded")
	}
	return newSharded[K, V](opts, shard.NewRangeUniform(opts.Shards, lo, hi), nil, nil)
}

// NewShardedFromItems returns a sharded frontend bulk-loaded with the
// (keys[i], vals[i]) pairs (last occurrence of a duplicated key wins,
// as in NewMapFromItems; neither slice is retained). Under the
// default range policy the shard boundaries are the quantiles of the
// loaded keys, so every shard starts with an equal share whatever the
// distribution.
func NewShardedFromItems[K Key, V any](opts ShardedOptions, keys []K, vals []V) *Sharded[K, V] {
	if len(keys) != len(vals) {
		panic("pbist: NewShardedFromItems keys/vals length mismatch")
	}
	opts = opts.withDefaults()
	m := &Map[K, V]{}
	m.pool = opts.pool()
	m.assumeSorted = opts.AssumeSorted
	nk, nv := m.normalizePairs(keys, vals)
	var p shard.Partitioner[K]
	if opts.Partition == PartitionHash {
		p = shard.NewHashed[K](opts.Shards)
	} else {
		p = shard.NewRangeQuantiles(opts.Shards, nk)
	}
	return newSharded(opts, p, nk, nv)
}

// newSharded builds the shard group: one core tree per shard loaded
// with its slice of the (optional) initial items, one combiner per
// tree, and one pool for everything. Each tree owns its scratch arena
// and each combiner its per-epoch arrays.
func newSharded[K Key, V any](opts ShardedOptions, p shard.Partitioner[K], keys []K, vals []V) *Sharded[K, V] {
	pool := opts.pool()
	s := &Sharded[K, V]{
		part:  p,
		cbs:   make([]*combine.Combiner[K, V], p.N()),
		trees: make([]*core.Tree[K, V], p.N()),
		pool:  pool,
		opts:  opts,
		obs:   shard.NewObs(opts.Metrics),
	}
	if opts.PointFilter {
		s.filters = make([]*shard.Bloom, p.N())
		for i := range s.filters {
			s.filters[i] = shard.NewBloom(filterBits)
		}
	}
	var parts [][]K
	var vparts [][]V
	switch {
	case keys == nil:
	case p.N() == 1: // the one shard loads everything: no split copy
		parts, vparts = [][]K{keys}, [][]V{vals}
	default:
		parts, vparts = shard.SplitPairs(p, keys, vals)
	}
	cfg := opts.coreConfig()
	copts := opts.combineOptions()
	for i := range s.cbs {
		var pk []K
		var pv []V
		if parts != nil {
			pk, pv = parts[i], vparts[i]
		}
		t := core.NewFromSortedKV(cfg, pool, pk, pv)
		if s.filters != nil {
			for _, k := range pk {
				s.filters[i].Add(shard.HashKey(k))
			}
		}
		// Publishing must be on before the combiner exists: from the
		// first epoch, every epoch ends with a version publish the read
		// paths below depend on.
		t.EnablePublish()
		s.trees[i] = t
		// Each shard's combiner tags its epoch traces with the shard
		// index, so a merged Trace attributes epochs to shards.
		shOpts := copts
		shOpts.ID = i
		s.cbs[i] = combine.New(combine.Engine[K, V](t), pool, shOpts)
	}
	return s
}

// check panics when an operation hits a closed frontend.
func check(err error) {
	if err != nil {
		panic("pbist: operation on closed frontend")
	}
}

// firstError retains the first error reported by a group of concurrent
// shard goroutines. set installs with CompareAndSwap, so the winner is
// the first reporter — a plain Store would let every later failure
// overwrite the earlier one, turning "first error" into "last error"
// when several shards fail in the same scatter.
type firstError struct {
	p atomic.Pointer[error]
}

func (f *firstError) set(err error) {
	f.p.CompareAndSwap(nil, &err)
}

// check panics with the closed-frontend message when any goroutine
// reported an error. Call it only after the group has been joined.
func (f *firstError) check() {
	if e := f.p.Load(); e != nil {
		check(*e)
	}
}

// shardOf returns the index of the shard owning key. A one-shard
// group skips the partitioner, so its point operations cost what the
// bare tree and combiner cost.
func (s *Sharded[K, V]) shardOf(key K) int {
	if len(s.cbs) == 1 {
		return 0
	}
	return s.part.Shard(key)
}

// filterMiss reports whether the owning shard's filter proves key was
// never inserted, letting a lookup answer "absent" without walking the
// shard's version. Always false when PointFilter is off.
func (s *Sharded[K, V]) filterMiss(sh int, key K) bool {
	if s.filters == nil {
		return false
	}
	if s.filters[sh].MayContain(shard.HashKey(key)) {
		if s.obs != nil {
			s.obs.FilterPass.Add(1)
		}
		return false
	}
	s.short.Add(1)
	if s.obs != nil {
		s.obs.FilterShort.Add(1)
	}
	return true
}

// Get returns the value stored under key; ok is false when absent. It
// reads the owning shard's latest published version and never enters
// the combining queue: wait-free (one atomic load, one interpolation
// walk, no blocking on any writer) and allocation-free. With
// PointFilter on, the shard's Bloom filter may answer a miss first.
//
// Get is linearizable with the combined writes: a version is published
// after an epoch's writes and before its clients wake, so Get observes
// every operation that completed before it was called. Writes still
// waiting in a combining queue have not taken effect yet and stay
// invisible until their epoch publishes. Get keeps answering after
// Close, from the final published version.
func (s *Sharded[K, V]) Get(key K) (val V, ok bool) {
	sh := s.shardOf(key)
	if s.filterMiss(sh, key) {
		return val, false
	}
	return s.trees[sh].SnapshotGet(key)
}

// Contains reports whether key is present; the membership-only form of
// Get, with the same guarantees.
func (s *Sharded[K, V]) Contains(key K) bool {
	sh := s.shardOf(key)
	if s.filterMiss(sh, key) {
		return false
	}
	return s.trees[sh].SnapshotContains(key)
}

// GetFast is Get.
//
// Deprecated: use Get, which reads the published version the same way.
func (s *Sharded[K, V]) GetFast(key K) (V, bool) { return s.Get(key) }

// Put stores val under key, inserting or overwriting; it reports
// whether the key was absent at the operation's linearization point.
func (s *Sharded[K, V]) Put(key K, val V) bool {
	sh := s.shardOf(key)
	if s.filters != nil {
		// Before the submit: once Put returns, every later point
		// lookup must see the filter bit.
		s.filters[sh].Add(shard.HashKey(key))
	}
	inserted, err := s.cbs[sh].Put(key, val)
	check(err)
	return inserted
}

// Delete removes key, reporting whether it was present. Deletes do
// not clear filter bits (a stale positive only costs the version walk
// a filterless lookup always pays).
func (s *Sharded[K, V]) Delete(key K) bool {
	removed, err := s.cbs[s.shardOf(key)].Delete(key)
	check(err)
	return removed
}

// forEachShard runs f concurrently for every shard with a non-empty
// sub-batch and waits for all of them: the scatter of every batched
// write. Sub-batches execute as concurrent epochs on independent
// combiners — the parallelism one combiner cannot reach.
func forEachShard[K Key](parts [][]K, f func(sh int)) {
	live := 0
	last := -1
	for sh, p := range parts {
		if len(p) > 0 {
			live++
			last = sh
		}
	}
	if live == 0 {
		return
	}
	if live == 1 {
		f(last) // single-shard batch: no goroutine churn
		return
	}
	var wg sync.WaitGroup
	for sh, p := range parts {
		if len(p) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			f(sh)
		}(sh)
	}
	wg.Wait()
}

// cutGrain is the parallel.ForRange grain of the grouped batched
// reads. A version walk takes a few hundred nanoseconds, less when
// GroupSize of them overlap, so a batch of up to cutGrain keys runs
// inline on the caller's goroutine and a larger one spreads over the
// pool in tasks of tens of microseconds.
const cutGrain = 256

// GetBatch fetches the value for every element of keys: vals[i] and
// found[i] answer keys[i], whatever the input order or duplication.
//
// The batch is answered from one atomic cut of every shard's published
// version (collectCut): it reflects one instant at which all shards
// held the state it reports, and every operation that completed before
// the call. It never enters a combining queue — wait-free apart from
// cut retries — and keeps answering after Close. Every key is routed
// as Get routes it, and the keys are walked in groups of
// core.GroupSize, one tree level per round, so the cache misses of a
// group's walks overlap. A batch of more than cutGrain keys runs its
// groups on the pool.
func (s *Sharded[K, V]) GetBatch(keys []K) (vals []V, found []bool) {
	if len(keys) == 0 {
		return nil, nil
	}
	vals = make([]V, len(keys))
	found = make([]bool, len(keys))
	s.getCut(keys, vals, found)
	return vals, found
}

// ContainsBatch reports membership for every element of keys,
// positionally, from one atomic cut like GetBatch.
func (s *Sharded[K, V]) ContainsBatch(keys []K) []bool {
	if len(keys) == 0 {
		return nil
	}
	found := make([]bool, len(keys))
	s.getCut(keys, nil, found)
	return found
}

// getCut answers keys[i] into found[i], and into vals[i] unless vals
// is nil, from one atomic cut of all shards.
func (s *Sharded[K, V]) getCut(keys []K, vals []V, found []bool) {
	var pinBuf [cutShards]core.ReaderPin
	var verBuf [cutShards]*core.Version[K, V]
	pins, vers := collectCut(s.trees, s.obs, pinBuf[:0], verBuf[:0])
	defer releasePins(pins)
	if len(keys) <= cutGrain {
		s.getGroups(vers, keys, vals, found, 0, len(keys))
		return
	}
	// The pool's tasks capture the versions; a heap copy keeps verBuf
	// on the stack for the small batches.
	shared := slices.Clone(vers)
	parallel.ForRange(s.pool, len(keys), cutGrain, func(lo, hi int) {
		s.getGroups(shared, keys, vals, found, lo, hi)
	})
}

// getGroups answers keys[lo:hi] as getCut does, GroupSize keys at a
// time: each key is routed to its shard, and every key the shard's
// filter does not answer joins the group that core.VersionGetGroup
// walks level by level over the shards' cut versions.
func (s *Sharded[K, V]) getGroups(vers []*core.Version[K, V], keys []K, vals []V, found []bool, lo, hi int) {
	var (
		gk  [core.GroupSize]K
		gv  [core.GroupSize]*core.Version[K, V]
		gat [core.GroupSize]int
		gvs [core.GroupSize]V
		gfs [core.GroupSize]bool
	)
	for i := lo; i < hi; {
		n := 0
		for ; i < hi && n < core.GroupSize; i++ {
			k := keys[i]
			sh := s.shardOf(k)
			if s.filterMiss(sh, k) {
				continue
			}
			gk[n], gv[n], gat[n] = k, vers[sh], i
			n++
		}
		if n == 0 {
			continue
		}
		var outV []V // nil for ContainsBatch
		if vals != nil {
			outV = gvs[:n]
		}
		core.VersionGetGroup(gv[:n], gk[:n], outV, gfs[:n])
		for j, at := range gat[:n] {
			found[at] = gfs[j]
			if vals != nil {
				vals[at] = gvs[j]
			}
		}
	}
}

// PutBatch upserts every (keys[i], vals[i]) pair, returning how many
// keys were newly inserted. Duplicate keys resolve to the last
// occurrence, as in Map.PutBatch (duplicates land on one shard, whose
// combiner replays them in position order). Atomic per shard, not
// across shards.
func (s *Sharded[K, V]) PutBatch(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("pbist: PutBatch keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0
	}
	var t0 time.Time
	if s.obs != nil {
		t0 = time.Now()
	}
	parts, vparts := shard.SplitPairs(s.part, keys, vals)
	if s.obs != nil {
		s.obs.Scatter.RecordSince(t0)
	}
	var inserted atomic.Int64
	var ferr firstError
	forEachShard(parts, func(sh int) {
		if s.filters != nil {
			for _, k := range parts[sh] {
				s.filters[sh].Add(shard.HashKey(k))
			}
		}
		n, err := s.cbs[sh].PutBatch(parts[sh], vparts[sh])
		if err != nil {
			ferr.set(err)
			return
		}
		inserted.Add(int64(n))
	})
	ferr.check()
	return int(inserted.Load())
}

// DeleteBatch removes every element of keys, returning how many were
// present. Atomic per shard, not across shards.
func (s *Sharded[K, V]) DeleteBatch(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	var t0 time.Time
	if s.obs != nil {
		t0 = time.Now()
	}
	parts := shard.Split(s.part, keys)
	if s.obs != nil {
		s.obs.Scatter.RecordSince(t0)
	}
	var removed atomic.Int64
	var ferr firstError
	forEachShard(parts, func(sh int) {
		n, err := s.cbs[sh].DeleteBatch(parts[sh])
		if err != nil {
			ferr.set(err)
			return
		}
		removed.Add(int64(n))
	})
	ferr.check()
	return int(removed.Load())
}

// cutShards is the shard count up to which the cut readers keep the
// cut's pins and versions in stack arrays (the default is 8); past it
// collectCut's appends move them to the heap.
const cutShards = 8

// collectCut captures a mutually atomic cut across trees: it pins
// every tree as a reader, then loads each tree's published version
// repeatedly until one full pass observes no change against the
// previous pass. Combiners publish versions in sequence, so a stable
// double-collect proves no tree published between the first and last
// load of the final pass — the version pointers coexisted at one
// instant. For a single tree the first load already is such an
// instant and the second pass only confirms it. The pins and versions
// are appended to the caller's pins and vers (passed empty, so that
// small stack arrays can back them) and returned in tree order; pass
// the pins to releasePins once every walk over the versions' shared
// storage is done. Until then they keep retired chunk storage out of
// the recycler.
//
// The retry loop terminates quickly in practice: a pass takes
// nanoseconds per tree while a publish happens at most once per
// combining epoch, so consecutive conflicting passes require a
// sustained write storm on distinct combiners. With o set each retry
// is counted (shard.cut.retries), so a pathological workload is
// visible.
func collectCut[K Key, V any](trees []*core.Tree[K, V], o *shard.Obs, pins []core.ReaderPin, vers []*core.Version[K, V]) ([]core.ReaderPin, []*core.Version[K, V]) {
	for _, t := range trees {
		pins = append(pins, t.PinReader())
	}
	for _, t := range trees {
		vers = append(vers, t.CurrentVersion())
	}
	for {
		stable := true
		for i, t := range trees {
			if v := t.CurrentVersion(); v != vers[i] {
				vers[i] = v
				stable = false
			}
		}
		if stable {
			return pins, vers
		}
		if o != nil {
			o.CutRetries.Add(1)
		}
	}
}

// releasePins releases the reader pins of a cut.
func releasePins(pins []core.ReaderPin) {
	for _, p := range pins {
		p.Release()
	}
}

// pairs iterates position-aligned key and value arrays in order.
func pairs[K Key, V any](ks []K, vs []V) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for i, k := range ks {
			if !yield(k, vs[i]) {
				return
			}
		}
	}
}

// mergeShardKV combines per-shard sorted sequences into one globally
// sorted sequence: a concatenation under an order-preserving
// partitioner, an N-way merge (folded pairwise on the shared pool)
// under hashing. Shard key sets are disjoint, so UnionKV never has to
// pick a winner. A single part is returned as it is: the version
// readers hand back fresh slices, so nothing is aliased.
func (s *Sharded[K, V]) mergeShardKV(ks [][]K, vs [][]V) ([]K, []V) {
	if len(ks) == 1 {
		return ks[0], vs[0]
	}
	if s.part.Ordered() {
		total := 0
		for _, k := range ks {
			total += len(k)
		}
		outK := make([]K, 0, total)
		outV := make([]V, 0, total)
		for i := range ks {
			outK = append(outK, ks[i]...)
			outV = append(outV, vs[i]...)
		}
		return outK, outV
	}
	var outK []K
	var outV []V
	for i := range ks {
		if len(ks[i]) == 0 {
			continue
		}
		if outK == nil {
			outK, outV = ks[i], vs[i]
			continue
		}
		outK, outV = parallel.UnionKV(s.pool, outK, outV, ks[i], vs[i])
	}
	return outK, outV
}

// Len reports the number of keys stored: the sum of the per-shard
// version sizes over one atomic cut, so the count never mixes one
// shard's state before a cross-shard batch with another shard's state
// after it. Wait-free apart from cut retries; no combiner round trips.
func (s *Sharded[K, V]) Len() int {
	var pinBuf [cutShards]core.ReaderPin
	var verBuf [cutShards]*core.Version[K, V]
	pins, vers := collectCut(s.trees, s.obs, pinBuf[:0], verBuf[:0])
	releasePins(pins) // sizes live in the version headers, not chunk storage
	n := 0
	for _, v := range vers {
		n += v.Len()
	}
	return n
}

// Flush blocks until every operation submitted before it has executed
// on every shard.
func (s *Sharded[K, V]) Flush() {
	var wg sync.WaitGroup
	var ferr firstError
	for _, cb := range s.cbs {
		wg.Add(1)
		go func(cb *combine.Combiner[K, V]) {
			defer wg.Done()
			if err := cb.Flush(); err != nil {
				ferr.set(err)
			}
		}(cb)
	}
	wg.Wait()
	ferr.check()
}

// readCut captures one atomic cut of trees and answers read from each
// tree's version while the reader pins hold the shared chunk storage
// stable. The per-tree arrays come back in the order of trees, sorted
// and duplicate-free, ready for mergeShardKV. Large flattens already
// run in parallel on the pool inside each tree.
func readCut[K Key, V any](trees []*core.Tree[K, V], o *shard.Obs, read func(*core.Tree[K, V], *core.Version[K, V]) ([]K, []V)) ([][]K, [][]V) {
	var pinBuf [cutShards]core.ReaderPin
	var verBuf [cutShards]*core.Version[K, V]
	pins, vers := collectCut(trees, o, pinBuf[:0], verBuf[:0])
	defer releasePins(pins)
	ks := make([][]K, len(trees))
	vs := make([][]V, len(trees))
	for i, t := range trees {
		ks[i], vs[i] = read(t, vers[i])
	}
	return ks, vs
}

// Items returns every (key, value) pair, keys ascending and values
// position-aligned, as one mutually atomic cross-shard snapshot: all
// shards are read at a single instant (collectCut), so an Items result
// never shows a write without an earlier one that completed before the
// later write began, even on another shard. It reflects every
// operation that completed before the call; operations still queued in
// a combiner appear only once their epoch publishes.
func (s *Sharded[K, V]) Items() ([]K, []V) {
	return s.mergeShardKV(readCut(s.trees, s.obs, (*core.Tree[K, V]).VersionItems))
}

// Keys returns the keys in ascending order, from the same mutually
// atomic cut as Items.
func (s *Sharded[K, V]) Keys() []K {
	ks, _ := s.Items()
	return ks
}

// Range returns the (key, value) pairs with keys in [lo, hi], keys
// ascending, from one mutually atomic cut of the shards it reads, like
// Items. Under range partitioning only the shards whose intervals
// overlap [lo, hi] are read and their answers concatenate; under
// hashing every shard answers and the results merge.
func (s *Sharded[K, V]) Range(lo, hi K) ([]K, []V) {
	if hi < lo {
		return nil, nil
	}
	trees := s.trees
	if s.part.Ordered() {
		trees = trees[s.part.Shard(lo) : s.part.Shard(hi)+1]
	}
	return s.mergeShardKV(readCut(trees, s.obs, func(t *core.Tree[K, V], v *core.Version[K, V]) ([]K, []V) {
		return t.VersionRange(v, lo, hi)
	}))
}

// Ascend returns an in-order iterator over the (key, value) pairs in
// [lo, hi]. The sequence iterates one materialized cross-shard Range
// snapshot: mutations after the Ascend call do not affect it.
func (s *Sharded[K, V]) Ascend(lo, hi K) iter.Seq2[K, V] {
	return pairs(s.Range(lo, hi))
}

// Snapshot returns an independent point-in-time Map sharing the
// frontend's engine configuration and worker pool. It linearizes at
// one mutually atomic cut (the same instant-capture as Items): it
// contains every operation that completed before the call, no
// operation submitted after it, and all or none of each shard's part
// of a batch. Like Get it takes no fence and works on a closed
// frontend.
//
// With one shard the snapshot costs O(changed) time and space: it
// shares every chunk of tree storage with the live tree. Later
// mutations of the frontend copy shared nodes before writing, and
// mutating the snapshot copies in the other direction, so neither
// disturbs the other. With more shards the cut spans independent
// trees whose contents must be merged into one, so the snapshot costs
// Items plus one bulk load.
func (s *Sharded[K, V]) Snapshot() *Map[K, V] {
	m := &Map[K, V]{}
	m.pool = s.pool
	m.assumeSorted = s.opts.AssumeSorted
	if len(s.trees) == 1 {
		m.t = s.trees[0].SnapshotNow()
		return m
	}
	ks, vs := s.Items()
	m.t = core.NewFromSortedKV(s.opts.coreConfig(), s.pool, ks, vs)
	return m
}

// Close stops every shard's combiner: it stops accepting writes, waits
// for everything already submitted, and stops the combiner goroutines.
// Idempotent; safe to call concurrently with in-flight writes: each
// completes normally or panics with the closed-frontend message.
// Writes and Flush submitted after Close panic; reads keep answering
// from the final published versions.
func (s *Sharded[K, V]) Close() {
	var wg sync.WaitGroup
	for _, cb := range s.cbs {
		wg.Add(1)
		go func(cb *combine.Combiner[K, V]) {
			defer wg.Done()
			cb.Close()
		}(cb)
	}
	wg.Wait()
}

// Closed reports whether Close has been called.
func (s *Sharded[K, V]) Closed() bool {
	return s.cbs[0].Closed()
}

// Shards reports the shard count.
func (s *Sharded[K, V]) Shards() int { return s.part.N() }

// ShardedStats is a snapshot of the whole shard group's combining
// behavior plus the group-level counters: group and per-shard epoch
// statistics (the evidence that N combiners really do run N
// concurrent epochs) and filter effectiveness. Retention is reported
// by the summed core.arena.* (tree scratch) and combine.scratch.*
// (combiner per-epoch arrays) gauges of Options.Metrics.
type ShardedStats struct {
	// ConcurrentStats aggregates PerShard: Epochs, Ops and Keys are
	// summed over the shards, MeanOps and MeanKeys are
	// computed from those sums, and MeanWait is the mean of the
	// per-shard waits weighted by each shard's op count. With one
	// shard it equals PerShard[0].
	ConcurrentStats
	// Shards is the shard count; Ordered whether the partitioner
	// preserves key order across shards (range partitioning).
	Shards  int
	Ordered bool
	// PerShard holds each shard's combining statistics — epochs,
	// ops, keys, mean batch size, mean combine wait — in shard order.
	PerShard []ConcurrentStats
	// FilterShortCircuits counts point lookups answered "absent" by a
	// per-shard filter without a version walk (0 with PointFilter
	// off).
	FilterShortCircuits int64
}

// Trace returns up to n recent epoch traces across all shards, newest
// first by epoch start time (n <= 0 means all retained). Each trace's
// Shard field names the combiner that ran it, so the merged view shows
// the group's concurrent epochs interleaved. Per-shard rings are read
// without any cross-shard fence — the merge is a gather of unsynchro-
// nized snapshots, consistent per shard only, like Stats. Tracing is
// enabled by Options.Metrics or TraceDepth; otherwise Trace returns
// nil.
func (s *Sharded[K, V]) Trace(n int) []EpochTrace {
	var all []EpochTrace
	for _, cb := range s.cbs {
		all = append(all, cb.Trace(n)...)
	}
	slices.SortFunc(all, func(a, b EpochTrace) int {
		return b.Start.Compare(a.Start)
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Stats returns a snapshot of the shard group's combining behavior.
func (s *Sharded[K, V]) Stats() ShardedStats {
	st := ShardedStats{
		Shards:              len(s.cbs),
		Ordered:             s.part.Ordered(),
		PerShard:            make([]ConcurrentStats, len(s.cbs)),
		FilterShortCircuits: s.short.Load(),
	}
	var wait time.Duration
	for i, cb := range s.cbs {
		cs := ConcurrentStats(cb.Stats())
		st.PerShard[i] = cs
		st.Epochs += cs.Epochs
		st.Ops += cs.Ops
		st.Keys += cs.Keys
		wait += cs.MeanWait * time.Duration(cs.Ops)
	}
	if st.Epochs > 0 {
		st.MeanOps = float64(st.Ops) / float64(st.Epochs)
		st.MeanKeys = float64(st.Keys) / float64(st.Epochs)
	}
	if st.Ops > 0 {
		st.MeanWait = wait / time.Duration(st.Ops)
	}
	return st
}
