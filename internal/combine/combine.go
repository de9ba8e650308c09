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
package combine

import (
	"cmp"
	"errors"
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

// op is one client submission: a mini-batch of keys (length 1 for
// single-key operations) plus result storage filled by the combiner.
// Single-key ops use the inline arrays to stay allocation-free under
// the sync.Pool.
type op[K cmp.Ordered, V any] struct {
	kind Kind
	keys []K
	vals []V // kindPut: vals[i] to store under keys[i]

	rfound []bool // put: inserted; delete: removed

	enq  time.Time // for the combine-wait statistic; set only when observed
	done chan struct{}
	lead bool // set before a send on done that hands over the combiner role

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
	idle    sync.Cond // on mu; broadcast when a leader drops the role

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
// is blocked, never retained past completion. A client that finds no
// leader leads; the others wait on done, which completes them or
// hands them the role (o.lead).
func (c *Combiner[K, V]) submit(o *op[K, V]) error {
	c.mu.Lock()
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
		<-o.done
		if !o.lead {
			return nil
		}
		o.lead = false
	}
	c.lead(o)
	return nil
}

// lead runs one epoch on the goroutine that holds the combiner role,
// whose own op o is still queued. Flush rule: the leader yields the
// processor once and then takes everything queued, so whatever
// arrives while one epoch runs forms the next, and the clients the
// last epoch woke re-enqueue first. A lone client pays one yield.
// Taking the queue without it raised serve-churn's p99 about 5× (1.1
// ms against 0.19–0.25 ms): epochs shrank from about 2.4 keys to 1.0,
// and each key paid a whole epoch's fixed cost.
//
// A leader serves exactly one epoch, then hands the role to the oldest
// op queued meanwhile, or drops it: serving up to 8 epochs per leader
// raised serve-churn's p99 2.2×. The queue is double-buffered: the
// slice an epoch drained, cleared, becomes the next queue unless it
// grew past retainElems.
//
//pbist:combiner
func (c *Combiner[K, V]) lead(o *op[K, V]) {
	runtime.Gosched()
	c.mu.Lock()
	batch := c.pending
	c.pending = c.spare
	c.mu.Unlock()

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
	<-o.done // runEpoch completed every op of batch, o among them
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
	next.done <- struct{}{}
}

// Close stops accepting operations and waits until every already
// submitted operation has completed (the drain): the leaders pass the
// role along until the queue is empty. It is idempotent and safe to
// call concurrently with in-flight operations: each concurrent
// operation either completes normally or reports ErrClosed.
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
