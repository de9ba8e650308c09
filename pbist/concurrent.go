package pbist

import (
	"iter"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/parallel"
)

// ConcurrentOptions configures a Concurrent frontend: the engine
// Options plus the combining flush policy. The zero value gives
// sensible defaults.
type ConcurrentOptions struct {
	Options
	// MaxBatch is the size trigger of the combiner: an epoch is
	// flushed as soon as the queued operations carry at least this
	// many keys. Default 8192.
	MaxBatch int
	// MaxWait bounds the latency trigger: an epoch is flushed once its
	// oldest operation has waited this long. Below the bound the
	// combiner adapts to observed concurrency — it keeps an epoch open
	// only while submissions are still arriving, so a lone client is
	// not delayed and n active clients coalesce into n-op epochs.
	// Default 200µs.
	MaxWait time.Duration
	// TraceDepth bounds the per-combiner ring of recent epoch traces
	// readable through Trace. 0 keeps a default-depth ring when
	// Options.Metrics is set and disables tracing otherwise; setting
	// it enables tracing even without a registry.
	TraceDepth int
}

func (o ConcurrentOptions) combineOptions() combine.Options {
	return combine.Options{
		MaxBatch:      o.MaxBatch,
		MaxWait:       o.MaxWait,
		NoBufferReuse: o.ReuseBuffers == ReuseOff,
		Metrics:       o.Metrics,
		TraceDepth:    o.TraceDepth,
	}
}

// Concurrent is the shared-frontend view: a Map[K, V] engine served
// to arbitrarily many goroutines through a combining queue. Unlike
// Tree and Map — which run one batched operation at a time on the
// caller's goroutine — every method of Concurrent is safe for
// concurrent use.
//
// A single combiner goroutine drains the queue in epochs: everything
// submitted while the previous epoch executed is coalesced, resolved
// with one batched read traversal plus one batched write traversal on
// the engine (full intra-batch parallelism), and the per-operation
// results are routed back to the blocked callers. Under many clients
// this recovers the batched O(m·log log n) economics for workloads
// that arrive one key at a time.
//
// Consistency: the structure is linearizable. Operations of one epoch
// take effect in submission order — a Get observes every Put/Delete
// submitted (anywhere) before it in the epoch, writes to the same key
// resolve last-wins — and batch methods (GetBatch, PutBatch,
// DeleteBatch, ContainsBatch) are atomic. Stats reads the combiner's
// counters without a fence.
//
// Every read that does not go through the queue — GetFast,
// ContainsFast, Len, Keys, Items, Range, Ascend, and Snapshot — is
// served from the immutable version the combiner publishes after every
// epoch: no queue round trip, no blocking on writers, and still
// linearizable with the combined writes (a completed operation is
// always visible, because publication precedes client wakeup).
//
// Create one with NewConcurrent or NewConcurrentFromItems; call Close
// when done to stop the combiner goroutine. Operations on a closed
// Concurrent panic, except the version readers (GetFast, ContainsFast,
// Len, Keys, Items, Range, Ascend, Snapshot), which keep serving the
// final published state.
type Concurrent[K Key, V any] struct {
	cb *combine.Combiner[K, V]
	// eng is the engine tree itself, retained for the version read
	// surface: the combiner publishes an immutable version of eng at
	// the end of every epoch (before waking that epoch's clients), and
	// the version readers walk those versions without submitting to
	// the combining queue.
	eng *core.Tree[K, V]
	// opts and pool are remembered so snapshot Maps inherit the
	// frontend's batch normalization and worker pool.
	opts ConcurrentOptions
	pool *parallel.Pool
}

// NewConcurrent returns an empty concurrent map frontend and starts
// its combiner goroutine.
func NewConcurrent[K Key, V any](opts ConcurrentOptions) *Concurrent[K, V] {
	p := opts.pool()
	t := core.New[K, V](opts.coreConfig(), p)
	t.EnablePublish()
	return &Concurrent[K, V]{
		cb:   combine.New(combine.Engine[K, V](t), p, opts.combineOptions()),
		eng:  t,
		opts: opts,
		pool: p,
	}
}

// NewConcurrentFromItems returns a concurrent frontend bulk-loaded
// with the (keys[i], vals[i]) pairs (last occurrence of a duplicated
// key wins, as in NewMapFromItems). Neither input slice is retained.
func NewConcurrentFromItems[K Key, V any](opts ConcurrentOptions, keys []K, vals []V) *Concurrent[K, V] {
	if len(keys) != len(vals) {
		panic("pbist: NewConcurrentFromItems keys/vals length mismatch")
	}
	p := opts.pool()
	m := &Map[K, V]{}
	m.pool = p
	m.assumeSorted = opts.AssumeSorted
	nk, nv := m.normalizePairs(keys, vals)
	t := core.NewFromSortedKV(opts.coreConfig(), p, nk, nv)
	t.EnablePublish()
	return &Concurrent[K, V]{
		cb:   combine.New(combine.Engine[K, V](t), p, opts.combineOptions()),
		eng:  t,
		opts: opts,
		pool: p,
	}
}

// check panics when an operation is attempted on a closed Concurrent.
func check(err error) {
	if err != nil {
		panic("pbist: operation on closed Concurrent")
	}
}

// Get returns the value stored under key; ok is false when absent.
func (c *Concurrent[K, V]) Get(key K) (val V, ok bool) {
	val, ok, err := c.cb.Get(key)
	check(err)
	return val, ok
}

// Contains reports whether key is present.
func (c *Concurrent[K, V]) Contains(key K) bool {
	ok, err := c.cb.Contains(key)
	check(err)
	return ok
}

// GetFast returns the value stored under key by reading the latest
// version the combiner published, without submitting to the combining
// queue: wait-free (one atomic load, one interpolation walk, no
// blocking on any writer) and allocation-free.
//
// GetFast is linearizable with the combined operations: a version is
// published after an epoch's writes and before its clients wake, so
// GetFast observes every operation that completed before it was called.
// What it gives up against Get is only the queue's view of in-flight
// work — operations still waiting in the combining queue are invisible
// until their epoch publishes, which is a valid linearization either
// way. Unlike Get, GetFast never panics on a closed Concurrent: the
// final version remains readable after Close.
func (c *Concurrent[K, V]) GetFast(key K) (val V, ok bool) {
	return c.eng.SnapshotGet(key)
}

// ContainsFast reports whether key is present in the latest published
// version; the membership-only form of GetFast, with the same wait-free
// and linearizability properties.
func (c *Concurrent[K, V]) ContainsFast(key K) bool {
	return c.eng.SnapshotContains(key)
}

// Snapshot returns an independent point-in-time Map over the latest
// published version in O(changed) time and space: the snapshot shares
// every chunk of tree storage with the live structure instead of
// flattening and rebuilding. Later mutations of the frontend copy
// shared nodes before writing, so the snapshot is immutable-by-sharing;
// mutating the snapshot Map copies in the other direction and never
// disturbs the frontend.
//
// The snapshot linearizes at its version's publish point: it contains
// every operation that completed before the call and no operation
// submitted after it. Like GetFast it takes no fence and works on a
// closed Concurrent.
func (c *Concurrent[K, V]) Snapshot() *Map[K, V] {
	m := &Map[K, V]{}
	m.pool = c.pool
	m.assumeSorted = c.opts.AssumeSorted
	m.t = c.eng.SnapshotNow()
	return m
}

// Put stores val under key, inserting or overwriting; it reports
// whether the key was absent at the operation's linearization point.
func (c *Concurrent[K, V]) Put(key K, val V) bool {
	inserted, err := c.cb.Put(key, val)
	check(err)
	return inserted
}

// Delete removes key, reporting whether it was present.
func (c *Concurrent[K, V]) Delete(key K) bool {
	removed, err := c.cb.Delete(key)
	check(err)
	return removed
}

// GetBatch fetches the value for every element of keys as one atomic
// operation: vals[i] and found[i] answer keys[i], whatever the input
// order or duplication. The keys slice must not be mutated until the
// call returns.
func (c *Concurrent[K, V]) GetBatch(keys []K) (vals []V, found []bool) {
	vals, found, err := c.cb.GetBatch(keys)
	check(err)
	return vals, found
}

// ContainsBatch reports membership for every element of keys as one
// atomic operation.
func (c *Concurrent[K, V]) ContainsBatch(keys []K) []bool {
	found, err := c.cb.ContainsBatch(keys)
	check(err)
	return found
}

// PutBatch upserts every (keys[i], vals[i]) pair as one atomic
// operation, returning how many keys were newly inserted. Duplicate
// keys resolve to the last occurrence, as in Map.PutBatch. The slices
// must have equal length and must not be mutated until the call
// returns.
func (c *Concurrent[K, V]) PutBatch(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("pbist: PutBatch keys/vals length mismatch")
	}
	inserted, err := c.cb.PutBatch(keys, vals)
	check(err)
	return inserted
}

// DeleteBatch removes every element of keys as one atomic operation,
// returning how many were present.
func (c *Concurrent[K, V]) DeleteBatch(keys []K) int {
	removed, err := c.cb.DeleteBatch(keys)
	check(err)
	return removed
}

// Len reports the number of keys in the latest published version: it
// counts every operation that completed before the call.
func (c *Concurrent[K, V]) Len() int {
	return c.eng.SnapshotLen()
}

// Flush blocks until every operation submitted before it has
// executed. Useful as a barrier before reading Stats or handing the
// structure off.
func (c *Concurrent[K, V]) Flush() {
	check(c.cb.Flush())
}

// Items returns every (key, value) pair of the latest published
// version, keys ascending and values position-aligned: one atomic
// snapshot that reflects every operation completed before the call.
func (c *Concurrent[K, V]) Items() ([]K, []V) {
	vers, release := collectCut([]*core.Tree[K, V]{c.eng}, nil)
	defer release()
	return c.eng.VersionItems(vers[0])
}

// Keys returns the keys in ascending order, from the same atomic
// snapshot as Items.
func (c *Concurrent[K, V]) Keys() []K {
	ks, _ := c.Items()
	return ks
}

// Range returns the (key, value) pairs with keys in [lo, hi], keys
// ascending, as one atomic range snapshot of the latest published
// version.
func (c *Concurrent[K, V]) Range(lo, hi K) ([]K, []V) {
	vers, release := collectCut([]*core.Tree[K, V]{c.eng}, nil)
	defer release()
	return c.eng.VersionRange(vers[0], lo, hi)
}

// Ascend returns an in-order iterator over the (key, value) pairs in
// [lo, hi]. The sequence iterates one atomic Range snapshot taken at
// the Ascend call; later mutations do not affect it.
func (c *Concurrent[K, V]) Ascend(lo, hi K) iter.Seq2[K, V] {
	return pairs(c.Range(lo, hi))
}

// UnionSnapshot returns a Map holding the union of snapshots of c and
// other, with policy picking the surviving value on common keys
// (LeftWins keeps c's). Each snapshot is individually linearizable —
// c's is taken first, then other's — but the pair is not mutually
// atomic: operations completing between the two appear in other's
// snapshot only. The result shares c's pool and is detached from both
// frontends.
func (c *Concurrent[K, V]) UnionSnapshot(other *Concurrent[K, V], policy MergePolicy) *Map[K, V] {
	return c.Snapshot().Union(other.Snapshot(), policy)
}

// Close stops accepting operations, waits for every already submitted
// operation to complete, and stops the combiner goroutine. It is
// idempotent and safe to call concurrently with in-flight operations:
// each concurrent operation either completes normally or panics with
// the closed-Concurrent message. Operations submitted after Close
// panic.
func (c *Concurrent[K, V]) Close() {
	c.cb.Close()
}

// Closed reports whether Close has been called.
func (c *Concurrent[K, V]) Closed() bool {
	return c.cb.Closed()
}

// ConcurrentStats is a snapshot of combining behavior since
// construction: how well the frontend is turning concurrent
// single-key traffic into batches.
type ConcurrentStats struct {
	// Epochs is the number of combined batches executed.
	Epochs int64
	// Ops is the number of client operations served; Keys the number
	// of keys they carried (mini-batches carry several).
	Ops  int64
	Keys int64
	// SizeFlushes counts epochs flushed by the MaxBatch size trigger;
	// the rest were flushed by the latency trigger or by Close.
	SizeFlushes int64
	// MeanOps and MeanKeys are the mean combined batch size per epoch.
	MeanOps  float64
	MeanKeys float64
	// MeanWait is the mean time an operation spent queued before its
	// epoch began executing.
	MeanWait time.Duration
}

// Trace returns up to n recent epoch traces, newest first (n <= 0
// means all retained). Each trace decomposes one combining epoch into
// its named phase spans; see EpochTrace. Tracing is enabled by
// Options.Metrics or ConcurrentOptions.TraceDepth — without either,
// Trace returns nil. Safe to call concurrently with in-flight
// operations; the traces are copies and the call takes no fence.
func (c *Concurrent[K, V]) Trace(n int) []EpochTrace {
	return c.cb.Trace(n)
}

// Stats returns a snapshot of combining behavior.
func (c *Concurrent[K, V]) Stats() ConcurrentStats {
	s := c.cb.Stats()
	return ConcurrentStats{
		Epochs:      s.Epochs,
		Ops:         s.Ops,
		Keys:        s.Keys,
		SizeFlushes: s.SizeFlushes,
		MeanOps:     s.MeanOps,
		MeanKeys:    s.MeanKeys,
		MeanWait:    s.MeanWait,
	}
}
