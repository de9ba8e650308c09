package pbist

import (
	"errors"
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

// ShardedOptions configures a Sharded frontend: the per-shard engine
// and combiner settings (ConcurrentOptions) plus the shard count. The
// zero value gives sensible defaults. Every frontend partitions keys
// by range: NewShardedRange splits an explicit span into equal-width
// intervals, and NewShardedFromItems fits the boundaries to the
// quantiles of the loaded keys.
type ShardedOptions struct {
	ConcurrentOptions
	// Shards is the number of independent trees (each with its own
	// combining queue). Default 8.
	Shards int
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

// Sharded is the concurrent frontend: a Map[K, V] engine served to
// arbitrarily many goroutines. It runs N independent core trees
// (ShardedOptions.Shards), each behind its own combining queue, all
// sharing one worker pool. Unlike Tree and Map — which run one
// batched operation at a time on the caller's goroutine — every
// method of Sharded is safe for concurrent use. Concurrent is the
// one-shard case: the paper's single batched tree.
//
// The combining queues serve writes only. Each shard's queue drains in
// epochs, each run by one of the shard's waiting writers (flat
// combining): everything submitted while the previous epoch executed
// is coalesced, applied with one batched write
// traversal on the shard's tree that finds each key's presence on the
// way down (full intra-batch parallelism), and the per-operation
// results are routed back to the blocked callers. Under many clients this
// recovers the batched O(m·log log n) economics for writes that arrive
// one key at a time. The range partition routes every key to exactly
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
// Create one with NewShardedRange, NewShardedFromItems, NewConcurrent,
// or NewConcurrentFromItems; call Close when done to drain the
// combining queues. Writes and Flush on a closed frontend panic, as do
// writes to a shard after one of its epochs panicked; the reads
// (Get, Contains, GetBatch, ContainsBatch, Len, Keys, Items, Range,
// Ascend, Snapshot) keep serving the final published state.
type Sharded[K Key, V any] struct {
	part *shard.Ranges[K]
	cbs  []*combine.Combiner[K, V]
	// trees[i] is the engine behind cbs[i], retained for the version
	// read paths: per-shard wait-free point reads (Get) and the
	// cross-shard atomic cut (collectCut) both read the versions the
	// shard's combiner publishes, never the combining queue.
	trees []*core.Tree[K, V]
	pool  *parallel.Pool
	opts  ShardedOptions
	obs   *shard.Obs // nil unless Options.Metrics was set
}

// NewShardedRange returns an empty sharded frontend that partitions
// [lo, hi] into equal-width key intervals — the right construction
// when keys are roughly uniform over a known span. Keys outside the
// span are owned by the edge shards, so balance is only as good as the
// span: a skewed or drifting key set piles onto a few shards.
func NewShardedRange[K Key, V any](opts ShardedOptions, lo, hi K) *Sharded[K, V] {
	opts = opts.withDefaults()
	return newSharded[K, V](opts, opts.pool(), shard.NewRangeUniform(opts.Shards, lo, hi), nil, nil)
}

// NewShardedFromItems returns a sharded frontend bulk-loaded with the
// (keys[i], vals[i]) pairs (last occurrence of a duplicated key wins,
// as in NewMapFromItems). The shards partition the key range at the
// quantiles of the loaded keys, so every shard starts with an equal
// share whatever the distribution. Inserts outside the loaded span
// pile onto the edge shards.
//
// For sorted duplicate-free input the load costs an O(n) check and an
// O(n) copy into the shard trees' chunk storage, plus O(shards·log n)
// to split the input at the shard bounds; unsorted input is sorted
// first. Neither slice is retained.
func NewShardedFromItems[K Key, V any](opts ShardedOptions, keys []K, vals []V) *Sharded[K, V] {
	if len(keys) != len(vals) {
		panic("pbist: NewShardedFromItems keys/vals length mismatch")
	}
	opts = opts.withDefaults()
	pool := opts.pool()
	nk, nv := normalizePairs(pool, opts.AssumeSorted, keys, vals)
	return newSharded(opts, pool, shard.NewRangeQuantiles(opts.Shards, nk), nk, nv)
}

// newSharded builds the shard group: one core tree per shard loaded
// with its part of the sorted duplicate-free initial items (none when
// keys is empty), one combiner per tree, and pool for everything. The
// items are cut at the shard bounds, and the trees are built in
// parallel on the pool, each from its part as a subslice, which the
// bulk load copies into chunk storage. Each tree owns its scratch
// arena and each combiner its per-epoch arrays.
func newSharded[K Key, V any](opts ShardedOptions, pool *parallel.Pool, p *shard.Ranges[K], keys []K, vals []V) *Sharded[K, V] {
	s := &Sharded[K, V]{
		part:  p,
		cbs:   make([]*combine.Combiner[K, V], p.N()),
		trees: make([]*core.Tree[K, V], p.N()),
		pool:  pool,
		opts:  opts,
		obs:   shard.NewObs(opts.Metrics),
	}
	off := p.Cut(keys)
	cfg := opts.coreConfig()
	parallel.For(pool, len(s.trees), 1, func(i int) {
		lo, hi := off[i], off[i+1]
		s.trees[i] = core.NewFromSortedKV(cfg, pool, keys[lo:hi], vals[lo:hi])
	})
	copts := opts.combineOptions()
	for i, t := range s.trees {
		// Publishing must be on before the combiner exists: from the
		// first epoch, every epoch ends with a version publish the read
		// paths below depend on.
		t.EnablePublish()
		// Each shard's combiner tags its epoch traces with the shard
		// index, so a merged Trace attributes epochs to shards.
		shOpts := copts
		shOpts.ID = i
		s.cbs[i] = combine.New(combine.Engine[K, V](t), pool, shOpts)
	}
	return s
}

// check panics when an operation hits a closed frontend, or a shard
// whose combiner an earlier panicking epoch poisoned.
func check(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, combine.ErrPoisoned) {
		panic(poisonedPanic + err.Error())
	}
	panic("pbist: operation on closed frontend")
}

// poisonedPanic prefixes the panic of a write to a shard whose epoch
// panicked; the combiner's error, which carries the epoch's panic
// value, follows it.
const poisonedPanic = "pbist: frontend failed: "

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

// check panics with check's message when any goroutine reported an
// error. Call it only after the group has been joined.
func (f *firstError) check() {
	if e := f.p.Load(); e != nil {
		check(*e)
	}
}

// shardOf returns the index of the shard owning key. A one-shard
// group skips the bound search, so its point operations cost what the
// bare tree and combiner cost.
func (s *Sharded[K, V]) shardOf(key K) int {
	if len(s.cbs) == 1 {
		return 0
	}
	return s.part.Shard(key)
}

// Get returns the value stored under key; ok is false when absent. It
// reads the owning shard's latest published version and never enters
// the combining queue: wait-free (one atomic load, one interpolation
// walk, no blocking on any writer) and allocation-free.
//
// Get is linearizable with the combined writes: a version is published
// after an epoch's writes and before its clients wake, so Get observes
// every operation that completed before it was called. Writes still
// waiting in a combining queue have not taken effect yet and stay
// invisible until their epoch publishes. Get keeps answering after
// Close, from the final published version.
func (s *Sharded[K, V]) Get(key K) (val V, ok bool) {
	return s.trees[s.shardOf(key)].SnapshotGet(key)
}

// Contains reports whether key is present; the membership-only form of
// Get, with the same guarantees.
func (s *Sharded[K, V]) Contains(key K) bool {
	return s.trees[s.shardOf(key)].SnapshotContains(key)
}

// GetFast is Get.
//
// Deprecated: use Get, which reads the published version the same way.
func (s *Sharded[K, V]) GetFast(key K) (V, bool) { return s.Get(key) }

// Put stores val under key, inserting or overwriting; it reports
// whether the key was absent at the operation's linearization point.
// It panics on a NaN key (see Key).
func (s *Sharded[K, V]) Put(key K, val V) bool {
	checkKey(key)
	inserted, err := s.cbs[s.shardOf(key)].Put(key, val)
	check(err)
	return inserted
}

// Delete removes key, reporting whether it was present. It panics on
// a NaN key (see Key).
func (s *Sharded[K, V]) Delete(key K) bool {
	checkKey(key)
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
// time: each run of GroupSize consecutive keys is routed to its shards
// and core.VersionGetGroup walks it level by level over the shards' cut
// versions, writing the answers in place.
func (s *Sharded[K, V]) getGroups(vers []*core.Version[K, V], keys []K, vals []V, found []bool, lo, hi int) {
	var gv [core.GroupSize]*core.Version[K, V]
	for i := lo; i < hi; i += core.GroupSize {
		j := min(i+core.GroupSize, hi)
		for g, k := range keys[i:j] {
			gv[g] = vers[s.shardOf(k)]
		}
		var outV []V // nil for ContainsBatch
		if vals != nil {
			outV = vals[i:j]
		}
		core.VersionGetGroup(gv[:j-i], keys[i:j], outV, found[i:j])
	}
}

// PutBatch upserts every (keys[i], vals[i]) pair, returning how many
// keys were newly inserted. Duplicate keys resolve to the last
// occurrence, as in Map.PutBatch (duplicates land on one shard, whose
// combiner replays them in position order). Atomic per shard, not
// across shards. It panics on a NaN key (see Key).
func (s *Sharded[K, V]) PutBatch(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("pbist: PutBatch keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0
	}
	checkKeys(keys)
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
// present. Atomic per shard, not across shards. It panics on a NaN
// key (see Key).
func (s *Sharded[K, V]) DeleteBatch(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	checkKeys(keys)
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

// concatShardKV joins per-shard sorted sequences, read in shard
// order, into one globally sorted sequence: shard order is key order.
// A single part is returned as it is: the version readers hand back
// fresh slices, so nothing is aliased.
func concatShardKV[K Key, V any](ks [][]K, vs [][]V) ([]K, []V) {
	if len(ks) == 1 {
		return ks[0], vs[0]
	}
	return slices.Concat(ks...), slices.Concat(vs...)
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
// and duplicate-free, ready for concatShardKV. Large flattens already
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
	return concatShardKV(readCut(s.trees, s.obs, (*core.Tree[K, V]).VersionItems))
}

// Keys returns the keys in ascending order, from the same mutually
// atomic cut as Items.
func (s *Sharded[K, V]) Keys() []K {
	ks, _ := s.Items()
	return ks
}

// Range returns the (key, value) pairs with keys in [lo, hi], keys
// ascending, from one mutually atomic cut of the shards it reads, like
// Items. Only the shards whose intervals overlap [lo, hi] are read,
// and their answers concatenate.
func (s *Sharded[K, V]) Range(lo, hi K) ([]K, []V) {
	if hi < lo {
		return nil, nil
	}
	trees := s.trees[s.part.Shard(lo) : s.part.Shard(hi)+1]
	return concatShardKV(readCut(trees, s.obs, func(t *core.Tree[K, V], v *core.Version[K, V]) ([]K, []V) {
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

// Close closes every shard's combiner: it stops accepting writes and
// waits for everything already submitted. Idempotent; safe to call
// concurrently with in-flight writes: each completes normally or
// panics with the closed-frontend message. Writes and Flush submitted
// after Close panic; reads keep answering from the final published
// versions.
func (s *Sharded[K, V]) Close() {
	for _, cb := range s.cbs {
		cb.Close()
	}
}

// Closed reports whether Close has been called.
func (s *Sharded[K, V]) Closed() bool {
	return s.cbs[0].Closed()
}

// Shards reports the shard count.
func (s *Sharded[K, V]) Shards() int { return s.part.N() }

// ShardedStats is a snapshot of the whole shard group's combining
// behavior: group and per-shard epoch statistics (the evidence that N
// combiners really do run N concurrent epochs). Retention is reported
// by the summed core.arena.* (tree scratch) and combine.scratch.*
// (combiner per-epoch arrays) gauges of Options.Metrics.
type ShardedStats struct {
	// ConcurrentStats aggregates PerShard: Epochs, Ops and Keys are
	// summed over the shards, MeanOps and MeanKeys are
	// computed from those sums, and MeanWait is the mean of the
	// per-shard waits weighted by each shard's op count. With one
	// shard it equals PerShard[0].
	ConcurrentStats
	// Shards is the shard count.
	Shards int
	// PerShard holds each shard's combining statistics — epochs,
	// ops, keys, mean batch size, mean combine wait — in shard order.
	PerShard []ConcurrentStats
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
		Shards:   len(s.cbs),
		PerShard: make([]ConcurrentStats, len(s.cbs)),
	}
	var wait time.Duration
	for i, cb := range s.cbs {
		cs := cb.Stats()
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
