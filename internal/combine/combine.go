// Package combine implements a flat-combining-style concurrent
// frontend for the parallel-batched engine: arbitrarily many client
// goroutines submit single-key and mini-batch operations, a single
// combiner goroutine coalesces everything queued into an epoch, and
// each epoch executes as at most one batched presence traversal plus
// one batched write traversal on the underlying engine, with full
// intra-batch parallelism.
//
// This inverts the usual lock-based recipe: instead of serializing
// clients around a structure that handles one key at a time, clients
// are serialized only for the nanoseconds it takes to enqueue, and the
// per-key work runs through the engine's O(m·log log n) batched
// traversals. The pattern follows the combining frontends of
// Akhremtsev & Sanders ("Fast Parallel Operations on Search Trees",
// arXiv:1510.05433), which bridge exactly this gap between a
// batched-sequential-at-the-top engine and a concurrent-clients
// workload.
//
// Semantics: every operation of an epoch is linearized in submission
// order. Each write reports the presence its key had just before it:
// the pre-epoch state as modified by the writes submitted before it in
// the same epoch. Writes to the same key resolve last-wins; mini-batch
// operations are atomic (their elements occupy consecutive positions
// in the epoch order). Flush completes at the end of its epoch, after
// every operation submitted before it. Reads are not served here:
// every epoch ends by publishing an immutable version of the engine,
// and readers walk those versions without entering the queue. The
// queue serves only single-key or mini-batch writes and Flush fences.
package combine

import (
	"cmp"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Engine is the batched structure a Combiner serves: the subset of
// *core.Tree the epoch executor needs. Batches passed to it are
// always sorted and duplicate-free. The Combiner is the only caller,
// so the Engine itself need not be safe for concurrent use.
//
// ContainsBatchedInto resolves the pre-epoch presence every write
// reports. Its destination is caller-provided, len(keys),
// zero-initialized (entries of absent keys are left untouched), so the
// combiner can recycle the array of one epoch as the array of the next
// instead of allocating per epoch.
type Engine[K cmp.Ordered, V any] interface {
	ContainsBatchedInto(keys []K, found []bool)
	PutBatched(keys []K, vals []V) int
	RemoveBatched(keys []K) int

	// PublishVersion is called at the end of every epoch, after the
	// epoch's writes and before its clients are woken, so by the time
	// any operation completes its effects are visible to version
	// readers. That ordering keeps the wait-free reads linearizable
	// with combined operations.
	PublishVersion()
	// BeginRebuildEpoch and EndRebuildEpoch bracket every epoch so one
	// rebuild budget covers everything its write traversals spend.
	// BeginRebuildEpoch runs before the epoch executes (and may splice
	// a finished background rebuild in, so the epoch serves the
	// repaired shape). EndRebuildEpoch runs after the epoch publishes,
	// the moment the live tree is frozen: it drains deferred debt or
	// kicks the next background rebuild, and reports the rebuild keys
	// the epoch spent plus the debt still outstanding, which the epoch
	// trace records.
	BeginRebuildEpoch()
	EndRebuildEpoch() (spentKeys, debtKeys int)
}

// scratch is a Combiner's per-epoch scratch arena: size-classed free
// lists for the event lists, distinct-key arrays, presence and mark
// arrays, and write batches an epoch borrows and returns. Every
// Combiner owns one; the zero value recycles.
type scratch[K cmp.Ordered, V any] struct {
	ev    arena.Scratch[event[K]]
	keys  arena.Scratch[K]
	vals  arena.Scratch[V]
	bools arena.Scratch[bool]
	i32s  arena.Scratch[int32]
}

// retained reports the scratch free-list inventory across all element
// types: idle buffers held for reuse and their summed capacity in
// elements (value buffers count elements of V, key buffers elements
// of K, and so on — the number is a structural gauge, not bytes).
func (s *scratch[K, V]) retained() (buffers int, elems int64) {
	b, e := s.ev.Retained()
	buffers, elems = buffers+b, elems+e
	b, e = s.keys.Retained()
	buffers, elems = buffers+b, elems+e
	b, e = s.vals.Retained()
	buffers, elems = buffers+b, elems+e
	b, e = s.bools.Retained()
	buffers, elems = buffers+b, elems+e
	b, e = s.i32s.Retained()
	return buffers + b, elems + e
}

// ErrClosed is returned by operations submitted after Close.
var ErrClosed = errors.New("combine: combiner is closed")

// Options tunes the flush policy of a Combiner. The zero value
// selects the defaults.
type Options struct {
	// MaxBatch is the size trigger: an epoch is flushed as soon as the
	// queued operations carry at least this many keys. Default 8192.
	MaxBatch int
	// MaxWait is the latency trigger: an epoch is flushed once its
	// oldest operation has waited this long, however slowly the queue
	// is still growing. Below this cap the combiner flushes as soon as
	// arrivals stall (see loop), so MaxWait is a bound, not a tax paid
	// on every epoch. Default 200µs.
	MaxWait time.Duration

	// Metrics attaches the combiner to an observability registry:
	// epoch counters, phase-span and client-latency histograms record
	// under the "combine." prefix, and epoch tracing turns on. nil
	// (the default) disables all recording at zero cost — the hot
	// paths carry nil metric handles whose methods no-op.
	Metrics *obs.Registry
	// TraceDepth bounds the ring of recent epoch traces kept for
	// Trace. 0 selects obs.DefaultTraceDepth when Metrics is set and
	// leaves tracing off otherwise; setting it enables tracing even
	// without a registry.
	TraceDepth int
	// ID tags this combiner's epoch traces (the sharded frontend sets
	// it to the shard index; standalone combiners leave it 0).
	ID int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8192
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 200 * time.Microsecond
	}
	return o
}

// Kind identifies the operation an op carries.
type Kind uint8

const (
	kindPut Kind = iota + 1
	kindDelete
	kindFence // carries no keys; completes after all earlier ops
)

// op is one client submission: a mini-batch of keys (length 1 for
// single-key operations) plus result storage filled by the combiner.
// Single-key ops use the inline arrays to stay allocation-free under
// the sync.Pool.
type op[K cmp.Ordered, V any] struct {
	kind Kind
	keys []K
	vals []V // kindPut: vals[i] to store under keys[i]

	rfound []bool // put: inserted; delete: removed

	enq  time.Time // for the combine-wait statistic
	done chan struct{}

	k1  [1]K
	v1  [1]V
	rf1 [1]bool
}

// Combiner serves concurrent clients by funneling their operations
// through epochs executed on a single Engine. Create one with New;
// all exported methods are safe for concurrent use.
type Combiner[K cmp.Ordered, V any] struct {
	eng  Engine[K, V] //pbist:guardedby combiner
	pool *parallel.Pool
	opts Options

	mu          sync.Mutex
	pending     []*op[K, V] // enqueue order is the epoch linearization order
	pendingKeys int
	firstEnq    time.Time
	closed      bool

	wake     chan struct{} // capacity 1; nudges the combiner loop
	loopDone chan struct{}

	opPool sync.Pool

	// Per-epoch scratch, recycled across epochs through the same
	// size-classed free lists the core tree uses (internal/arena).
	// Only runEpoch borrows from these, and it returns every buffer
	// before the epoch's clients are woken, so no recycled buffer is
	// ever reachable from two epochs — or from any client — at once.
	//pbist:guardedby combiner
	scr *scratch[K, V]

	// probe is the combiner's observability hook: nil unless the
	// combiner was built with Options.Metrics or Options.TraceDepth.
	// Its handles are internally synchronized (Trace reads the ring
	// from client goroutines), so it is not combiner-confined.
	probe *probe

	smu sync.Mutex
	st  counters
}

// counters accumulates the raw statistics behind Stats.
type counters struct {
	epochs      int64
	ops         int64
	keys        int64
	sizeFlushes int64
	waitTotal   time.Duration
}

// Stats is a snapshot of combining behavior since construction.
type Stats struct {
	// Epochs is the number of combined batches executed.
	Epochs int64
	// Ops is the number of client operations served.
	Ops int64
	// Keys is the number of keys those operations carried.
	Keys int64
	// SizeFlushes counts epochs flushed by the MaxBatch size trigger;
	// the remaining Epochs − SizeFlushes were flushed by the latency
	// trigger (or by Close draining the queue).
	SizeFlushes int64
	// MeanOps and MeanKeys are the mean combined batch size per epoch,
	// in operations and in keys.
	MeanOps  float64
	MeanKeys float64
	// MeanWait is the mean time an operation spent queued before its
	// epoch began executing.
	MeanWait time.Duration
}

// New starts a Combiner serving eng. pool bounds the parallelism of
// epoch execution (batched traversals and result routing); a nil pool
// means sequential. The caller must not touch eng afterwards except
// through the Combiner, and should Close the Combiner to stop its
// goroutine. The Combiner owns a private scratch arena its epochs
// recycle buffers through.
func New[K cmp.Ordered, V any](eng Engine[K, V], pool *parallel.Pool, opts Options) *Combiner[K, V] {
	opts = opts.withDefaults()
	scr := &scratch[K, V]{}
	scr.observe(opts.Metrics)
	c := &Combiner[K, V]{
		eng:      eng,
		pool:     pool,
		opts:     opts,
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
		scr:      scr,
		probe:    newProbe(opts.Metrics, opts.TraceDepth, opts.ID),
	}
	c.opPool.New = func() any {
		return &op[K, V]{done: make(chan struct{}, 1)}
	}
	go c.loop()
	return c
}

// getOp takes a recycled op and arms it for one submission.
func (c *Combiner[K, V]) getOp(kind Kind) *op[K, V] {
	o := c.opPool.Get().(*op[K, V])
	o.kind = kind
	return o
}

// putOp recycles an op. Results must have been copied out already;
// references to caller slices are dropped so nothing is retained.
func (c *Combiner[K, V]) putOp(o *op[K, V]) {
	o.keys, o.vals, o.rfound = nil, nil, nil
	var zk K
	var zv V
	o.k1[0], o.v1[0], o.rf1[0] = zk, zv, false
	c.opPool.Put(o)
}

// submit enqueues o and blocks until its epoch has executed. The
// caller's keys/vals slices are read by the combiner while the caller
// is blocked, never retained past completion.
func (c *Combiner[K, V]) submit(o *op[K, V]) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	o.enq = time.Now()
	if len(c.pending) == 0 {
		c.firstEnq = o.enq
	}
	c.pending = append(c.pending, o)
	c.pendingKeys += len(o.keys)
	nudge := len(c.pending) == 1
	c.mu.Unlock()
	// Only the empty→non-empty transition can find the loop blocked on
	// wake; while the queue is non-empty the loop is gathering or
	// executing and polls the queue itself.
	if nudge {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	<-o.done
	return nil
}

// loop is the combiner goroutine: it gathers queued operations into
// epochs under an adaptive flush policy and executes them.
//
// Flush policy: an epoch flushes as soon as it holds MaxBatch keys
// (size trigger); below that the combiner gathers adaptively while
// the queue is still growing, yielding the processor between polls so
// just-woken clients can enqueue, and flushes the moment arrivals
// stall — bounded by the oldest op's MaxWait deadline (latency
// trigger). A lone client therefore pays only a few yields (its queue
// never grows while it blocks), while n active clients converge to
// n-op epochs: the previous epoch's completions wake them together,
// and gathering holds the epoch open exactly until they have all
// re-enqueued. Epoch execution time adds natural batching on top —
// everything arriving during one epoch belongs to the next.
func (c *Combiner[K, V]) loop() {
	defer close(c.loopDone)
	for {
		c.mu.Lock()
		for len(c.pending) == 0 {
			if c.closed {
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			<-c.wake
			c.mu.Lock()
		}
		// Work is queued: gather while arrivals continue.
		if c.pendingKeys < c.opts.MaxBatch && !c.closed {
			deadline := c.firstEnq.Add(c.opts.MaxWait)
			prev := len(c.pending)
			c.mu.Unlock()
			for !time.Now().After(deadline) {
				for i := 0; i < 4; i++ {
					runtime.Gosched()
				}
				c.mu.Lock()
				cur, keys, closing := len(c.pending), c.pendingKeys, c.closed
				c.mu.Unlock()
				if cur == prev || keys >= c.opts.MaxBatch || closing {
					break // arrivals stalled, or a trigger fired
				}
				prev = cur
			}
			c.mu.Lock()
		}
		batch := c.pending
		keys := c.pendingKeys
		c.pending = nil
		c.pendingKeys = 0
		c.mu.Unlock()

		sized := keys >= c.opts.MaxBatch
		if c.probe != nil {
			// Tag the epoch (and every pool goroutine it forks — pprof
			// labels inherit) so CPU profiles attribute combining work.
			// The branch keeps the unobserved path free of the closure
			// allocation.
			parallel.WithLabel(true, "combine-epoch", func() {
				c.runEpoch(batch, keys, sized)
			})
		} else {
			c.runEpoch(batch, keys, sized)
		}
	}
}

// Close stops accepting operations, waits until every already
// submitted operation has completed (the drain), and stops the
// combiner goroutine. It is idempotent and safe to call concurrently
// with in-flight operations: each concurrent operation either
// completes normally or reports ErrClosed.
func (c *Combiner[K, V]) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	<-c.loopDone
}

// Closed reports whether Close has been called.
func (c *Combiner[K, V]) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Stats returns a snapshot of combining behavior.
func (c *Combiner[K, V]) Stats() Stats {
	c.smu.Lock()
	st := c.st
	c.smu.Unlock()
	s := Stats{
		Epochs:      st.epochs,
		Ops:         st.ops,
		Keys:        st.keys,
		SizeFlushes: st.sizeFlushes,
	}
	if st.epochs > 0 {
		s.MeanOps = float64(st.ops) / float64(st.epochs)
		s.MeanKeys = float64(st.keys) / float64(st.epochs)
	}
	if st.ops > 0 {
		s.MeanWait = st.waitTotal / time.Duration(st.ops)
	}
	return s
}

// Put stores val under key, reporting whether the key was absent.
func (c *Combiner[K, V]) Put(key K, val V) (inserted bool, err error) {
	o := c.getOp(kindPut)
	o.k1[0], o.v1[0] = key, val
	o.keys, o.vals = o.k1[:], o.v1[:]
	o.rfound = o.rf1[:]
	if err := c.submit(o); err != nil {
		c.putOp(o)
		return false, err
	}
	inserted = o.rf1[0]
	c.putOp(o)
	return inserted, nil
}

// Delete removes key, reporting whether it was present.
func (c *Combiner[K, V]) Delete(key K) (removed bool, err error) {
	o := c.getOp(kindDelete)
	o.k1[0] = key
	o.keys = o.k1[:]
	o.rfound = o.rf1[:]
	if err := c.submit(o); err != nil {
		c.putOp(o)
		return false, err
	}
	removed = o.rf1[0]
	c.putOp(o)
	return removed, nil
}

// PutBatch upserts every (keys[i], vals[i]) pair as one atomic
// operation and reports how many keys it newly inserted. Duplicate
// keys in the batch resolve to the last occurrence.
func (c *Combiner[K, V]) PutBatch(keys []K, vals []V) (inserted int, err error) {
	if len(keys) != len(vals) {
		panic("combine: PutBatch keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0, nil
	}
	o := c.getOp(kindPut)
	o.keys, o.vals = keys, vals
	o.rfound = make([]bool, len(keys))
	if err := c.submit(o); err != nil {
		c.putOp(o)
		return 0, err
	}
	for _, in := range o.rfound {
		if in {
			inserted++
		}
	}
	c.putOp(o)
	return inserted, nil
}

// DeleteBatch removes every element of keys as one atomic operation
// and reports how many were present.
func (c *Combiner[K, V]) DeleteBatch(keys []K) (removed int, err error) {
	if len(keys) == 0 {
		return 0, nil
	}
	o := c.getOp(kindDelete)
	o.keys = keys
	o.rfound = make([]bool, len(keys))
	if err := c.submit(o); err != nil {
		c.putOp(o)
		return 0, err
	}
	for _, rm := range o.rfound {
		if rm {
			removed++
		}
	}
	c.putOp(o)
	return removed, nil
}

// Flush blocks until every operation submitted before it has
// executed.
func (c *Combiner[K, V]) Flush() error {
	o := c.getOp(kindFence)
	err := c.submit(o)
	c.putOp(o)
	return err
}
