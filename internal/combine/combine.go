// Package combine implements a flat-combining concurrent frontend for
// the parallel-batched engine: arbitrarily many client goroutines
// submit single-key and mini-batch operations, and the client that
// finds no combiner running runs one epoch of everything queued, then
// hands the role to the oldest waiting client. Each epoch executes as
// one batched write traversal that applies the epoch's updates,
// inserts and removes together and finds each key's presence on the
// way down, with full intra-batch parallelism.
//
// This inverts the usual lock-based recipe: instead of serializing
// clients around a structure that handles one key at a time, clients
// are serialized only for the nanoseconds it takes to enqueue, and the
// per-key work runs through the engine's O(m·log log n) batched
// traversals. The pattern is flat combining (Hendler, Incze, Shavit
// and Tzafrir, SPAA 2010) applied to the combining frontends of
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
//
// Waiting: a queued client polls its operation's state for at most
// spinWait (20 µs) and then parks on a channel; the epoch that
// completes it, or the leader that hands it the role, sends on that
// channel only when it has parked. Most serving epochs end within the
// bound, so most writes never pass through the Go scheduler, which
// would queue a parked writer behind goroutines that never block. A
// combiner built at GOMAXPROCS=1 never spins.
//
// Failure: an epoch that panics poisons its combiner. Its operations,
// those queued behind it and every later submission fail with an
// error wrapping ErrPoisoned, and Close returns; the engine, which
// may be half written, runs no further epoch.
package combine

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Engine is the batched structure a Combiner serves: the subset of
// *core.Tree the epoch executor needs. Batches passed to it are
// always sorted and duplicate-free. The Combiner is the only caller,
// so the Engine itself need not be safe for concurrent use.
//
// ApplyResolved applies an epoch in one batched write traversal: keys
// are the distinct keys the epoch wrote, live their presence after it,
// and vals the last-wins values of the keys live after. The engine
// finds each key's presence before the epoch on the way down and
// writes it into found (every entry), the array the epoch's answers
// replay from, so an epoch walks the tree once. found is the
// combiner's own, reused by the next epoch. The engine never retains
// a batch slice. It returns the keys its inline rebuilds laid down,
// which the epoch trace records as RebuildKeys.
type Engine[K cmp.Ordered, V any] interface {
	ApplyResolved(keys []K, vals []V, live, found []bool) (rebuildKeys int)

	// PublishVersion is called at the end of every epoch, after the
	// epoch's writes and before its clients are woken, so by the time
	// any operation completes its effects are visible to version
	// readers. That ordering keeps the wait-free reads linearizable
	// with combined operations.
	PublishVersion()
}

// ErrClosed is returned by operations submitted after Close.
var ErrClosed = errors.New("combine: combiner is closed")

// ErrPoisoned is wrapped by the error a combiner returns once an epoch
// has panicked: to every operation of that epoch, every operation
// queued behind it and every later submission. The error's message
// carries the panic value. The engine may be half written, so a
// poisoned combiner runs no further epoch; Close still returns.
var ErrPoisoned = errors.New("combine: combiner poisoned by a panicking epoch")

// Options configures a Combiner's observability. The zero value
// records nothing.
type Options struct {
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

// Kind identifies the operation an op carries.
type Kind uint8

const (
	kindPut Kind = iota + 1
	kindDelete
	kindFence // carries no keys; completes after all earlier ops
)

// The states of an op's wait handshake (Combiner.wait, signal).
const (
	opPending  uint32 = iota // queued; its waiter polls or has not looked yet
	opParked                 // its waiter blocks on done
	opSignaled               // completed, failed or handed the combiner role
)

// spinWait bounds how long a queued writer polls its op's state
// before it parks on the op's done channel. An epoch of a few keys
// ends well within it, so most writers return without a trip through
// the scheduler. Parked waiters queue for a processor behind
// goroutines that never block, which a serving load always has; a
// bound much shorter than an epoch parks nearly every writer, and one
// much longer takes the processors the leader's epoch needs.
// BENCH_spinwait.json holds the sweep that set it.
const spinWait = 20 * time.Microsecond

// spinCheck is how many polls a spinning waiter makes between two
// reads of the clock.
const spinCheck = 64

// op is one client submission: a mini-batch of keys (length 1 for
// single-key operations) plus result storage filled by the combiner.
// Single-key ops use the inline arrays to stay allocation-free under
// the sync.Pool.
type op[K cmp.Ordered, V any] struct {
	kind Kind
	keys []K
	vals []V // kindPut: vals[i] to store under keys[i]

	rfound []bool // put: inserted; delete: removed

	enq   time.Time     // for the combine-wait statistic; set only when observed
	state atomic.Uint32 // opPending, opParked or opSignaled
	done  chan struct{} // sent on by signal only once the waiter parked
	lead  bool          // set before a signal that hands over the combiner role
	err   error         // set before a signal that fails the op (ErrPoisoned)

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

	mu      sync.Mutex
	pending []*op[K, V] // enqueue order is the epoch linearization order
	leading bool        // a client holds the combiner role
	closed  bool
	err     error     // set, wrapping ErrPoisoned, when an epoch panicked
	idle    sync.Cond // on mu; broadcast when a leader drops the role

	// spin is how long a waiter polls before it parks: spinWait, or 0
	// when New found GOMAXPROCS at 1, where a spinning waiter would
	// only hold the processor its epoch's leader needs. It is read
	// once because runtime.GOMAXPROCS takes the scheduler lock.
	spin time.Duration

	opPool sync.Pool

	// Per-epoch arrays and the drained queue slice, owned by whichever
	// client holds the combiner role: each epoch regrows them to its
	// size and the next epoch reuses them. No other client ever sees
	// one, and the role passes under mu or through the next leader's
	// done channel, so they need no lock and no free list (epoch.go).
	//pbist:guardedby combiner
	buf epochBufs[K, V]
	//pbist:guardedby combiner
	spare []*op[K, V]

	// retBufs and retElems are what buf held at the end of the last
	// observed epoch, stored by the combiner for the
	// combine.scratch.* gauges: gauge callbacks run on other
	// goroutines and must not read buf itself.
	retBufs, retElems atomic.Int64

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
	epochs    int64
	ops       int64
	keys      int64
	waitTotal time.Duration
}

// Stats is a snapshot of combining behavior since construction: how
// well a combiner is turning concurrent single-key writes into
// batches. Reads never enter a combiner and are not counted.
type Stats struct {
	// Epochs is the number of combined batches executed.
	Epochs int64
	// Ops is the number of client writes and Flush fences served; Keys
	// the number of keys they carried (mini-batches carry several).
	Ops  int64
	Keys int64
	// MeanOps and MeanKeys are the mean combined batch size per epoch,
	// in operations and in keys.
	MeanOps  float64
	MeanKeys float64
	// MeanWait is the mean time an operation spent queued before its
	// epoch began executing. It is measured only on an observed
	// combiner (Options.Metrics or Options.TraceDepth set) and reads 0
	// otherwise: an unobserved combiner reads no clock.
	MeanWait time.Duration
}

// New returns a Combiner serving eng. It starts no goroutine: epochs
// run on the submitting clients. pool bounds the parallelism of epoch
// execution (batched traversals and result routing); a nil pool means
// sequential. The caller must not touch eng afterwards except through
// the Combiner, and should Close the Combiner to drain it. The
// Combiner owns the per-epoch arrays its epochs reuse.
func New[K cmp.Ordered, V any](eng Engine[K, V], pool *parallel.Pool, opts Options) *Combiner[K, V] {
	c := &Combiner[K, V]{
		eng:   eng,
		pool:  pool,
		probe: newProbe(opts.Metrics, opts.TraceDepth, opts.ID),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		c.spin = spinWait
	}
	c.idle.L = &c.mu
	c.observeRetained(opts.Metrics)
	c.opPool.New = func() any {
		return &op[K, V]{done: make(chan struct{}, 1)}
	}
	return c
}

// getOp takes a recycled op and arms it for one submission.
func (c *Combiner[K, V]) getOp(kind Kind) *op[K, V] {
	o := c.opPool.Get().(*op[K, V])
	o.kind = kind
	return o
}

// putOp recycles an op. Results must have been copied out already;
// references to caller slices are dropped so nothing is retained. Its
// signaler no longer touches it: signal reads nothing of o after the
// state swap unless the waiter parked, and then the waiter returned
// only after the send.
func (c *Combiner[K, V]) putOp(o *op[K, V]) {
	o.keys, o.vals, o.rfound = nil, nil, nil
	o.state.Store(opPending)
	o.lead, o.err = false, nil
	var zk K
	var zv V
	o.k1[0], o.v1[0], o.rf1[0] = zk, zv, false
	c.opPool.Put(o)
}

// submit enqueues o and blocks until its epoch has executed. The
// caller's keys/vals slices are read by the combiner while the caller
// is blocked, never retained past completion. A client that finds no
// leader leads; the others wait for a signal, which completes them,
// fails them or hands them the role (o.lead).
func (c *Combiner[K, V]) submit(o *op[K, V]) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.probe != nil {
		o.enq = time.Now()
	}
	c.pending = append(c.pending, o)
	lead := !c.leading
	c.leading = true
	c.mu.Unlock()
	if !lead {
		c.wait(o)
		if !o.lead {
			return o.err
		}
	}
	c.lead()
	return o.err
}

// wait blocks until o is signaled. The waiter polls o's state for up
// to c.spin, so a writer whose epoch ends within that bound returns
// without a trip through the scheduler, and then parks on done. The
// compare-and-swap decides the race with signal: either the waiter
// parks first and signal sends on done, or the signal lands first and
// the swap fails.
func (c *Combiner[K, V]) wait(o *op[K, V]) {
	if c.spin > 0 {
		start := time.Now()
		for i := 1; o.state.Load() != opSignaled; i++ {
			if i%spinCheck == 0 && time.Since(start) > c.spin {
				break
			}
		}
	}
	if o.state.CompareAndSwap(opPending, opParked) {
		<-o.done
	}
}

// signal completes o, fails it or hands it the role: the waiter reads
// what was written to o before the signal (results, err, lead) once
// it sees the state. Nothing may touch o after signal, since its
// waiter may already have recycled it; the send happens only when the
// waiter parked, and then the waiter blocks until it arrives.
func signal[K cmp.Ordered, V any](o *op[K, V]) {
	if o.state.Swap(opSignaled) == opParked {
		o.done <- struct{}{}
	}
}

// lead runs one epoch on the goroutine that holds the combiner role,
// whose own op is queued. Flush rule: the leader takes everything
// queued, so whatever arrives while one epoch runs forms the next.
// The clients of the last epoch spin briefly (wait) rather than park,
// so they are running, and re-enqueue, while the next leader starts;
// a lone client is not delayed. The leader once yielded before the
// take to let parked clients re-enqueue; with clients that spin, that
// yield costs each epoch a trip through the scheduler and cut
// serve-churn's throughput about 5× (BENCH_spinwait.json).
//
// A leader serves exactly one epoch, then hands the role to the oldest
// op queued meanwhile, or drops it: serving up to 8 epochs per leader
// raised serve-churn's p99 2.2×. The queue is double-buffered: the
// slice an epoch drained, cleared, becomes the next queue unless it
// grew past retainElems.
//
//pbist:combiner
func (c *Combiner[K, V]) lead() {
	c.mu.Lock()
	batch := c.pending
	c.pending = c.spare
	c.mu.Unlock()

	if !c.execute(batch) {
		return
	}
	clear(batch)
	c.spare = trimmed(batch[:0], retainElems)

	c.mu.Lock()
	if len(c.pending) == 0 {
		c.leading = false
		c.idle.Broadcast()
		c.mu.Unlock()
		return
	}
	next := c.pending[0]
	c.mu.Unlock()
	next.lead = true
	signal(next)
}

// execute runs the epoch of batch and reports whether it completed.
// If it panics, the deferred failEpoch poisons the combiner and
// execute reports false.
//
//pbist:combiner
func (c *Combiner[K, V]) execute(batch []*op[K, V]) (ok bool) {
	defer c.failEpoch(batch)
	if c.probe != nil {
		// Tag the epoch (and every pool goroutine it forks — pprof
		// labels inherit) so CPU profiles attribute combining work.
		// The branch keeps the unobserved path free of the closure
		// allocation.
		parallel.WithLabel(true, "combine-epoch", func() {
			c.runEpoch(batch)
		})
	} else {
		c.runEpoch(batch)
	}
	return true
}

// failEpoch is execute's deferred step. After a panic in the epoch
// of batch, which signals its ops only as its last step, it poisons
// the combiner: it releases the role without handing it on, wakes
// Close, and fails every op of batch and every op still queued with
// an error that wraps ErrPoisoned and carries the panic value. Later
// submissions get the same error.
func (c *Combiner[K, V]) failEpoch(batch []*op[K, V]) {
	r := recover()
	if r == nil {
		return
	}
	err := fmt.Errorf("%w: %v", ErrPoisoned, r)
	c.mu.Lock()
	c.err = err
	queued := c.pending
	c.pending = nil
	c.leading = false
	c.idle.Broadcast()
	c.mu.Unlock()
	for _, ops := range [...][]*op[K, V]{batch, queued} {
		for _, o := range ops {
			o.err = err
			signal(o)
		}
	}
}

// Close stops accepting operations and waits until every already
// submitted operation has completed (the drain): the leaders pass the
// role along until the queue is empty. It is idempotent and safe to
// call concurrently with in-flight operations: each concurrent
// operation either completes normally or reports ErrClosed. It
// returns on a poisoned combiner too: the poisoning fails everything
// queued and drops the role.
func (c *Combiner[K, V]) Close() {
	c.mu.Lock()
	c.closed = true
	for c.leading {
		c.idle.Wait()
	}
	c.mu.Unlock()
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
		Epochs: st.epochs,
		Ops:    st.ops,
		Keys:   st.keys,
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
