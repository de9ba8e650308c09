// Package core implements the paper's primary contribution: the
// Parallel-Batched Interpolation Search Tree (PB-IST).
//
// The tree stores a sorted collection of numeric keys — each carrying
// a value of an arbitrary type V — and executes whole batches of
// operations at once:
//
//   - ContainsBatched (§4) answers membership for a sorted batch,
//   - GetBatched (§4) additionally fetches the stored values,
//   - InsertBatched (§5) adds a sorted batch (set union),
//   - PutBatched (§5) upserts a sorted batch of key-value pairs,
//   - RemoveBatched (§6) deletes a sorted batch (set difference),
//   - ApplyResolved applies a batch of keys whose state after the
//     write the caller knows (updates, inserts and removes at once),
//     reporting each key's presence before it,
//
// each in expected O(m·log log n) work for a batch of m keys against a
// tree of n keys drawn from a smooth distribution, and polylogarithmic
// span (§8). Balance and space are maintained by amortized parallel
// subtree rebuilding (§7). The four writes are one call each of the
// same write traversal, which finds each key's presence on its way
// down; the paper's §5–§6 filter the batch with a membership walk
// first.
//
// Each batched operation is one recursion (§4, Listing 1.2). While a
// node's segment of the batch is large it runs parallel loops and a
// per-child fan-out on arena position buffers; the first segment of
// at most seqSegCutoff keys (every segment, on a one-worker pool)
// borrows a pooled walker, and its whole subtree runs plain loops on
// the walker's per-depth buffers. The ideal build switches the same
// way at buildSeqCutoff keys, to a node slab.
//
// Node storage is chunked: a rebuilt subtree lays the rep/vals/exists
// arrays of all its nodes into three contiguous backing arrays
// (internal/arena.Chunk) that the nodes slice into at deterministic
// offsets, so a rebuild of s keys costs three array allocations plus
// one node header each instead of three-to-five heap allocations per
// node, and sibling leaves end up adjacent in memory — the
// cache-friendly layout interpolation search trees are designed
// around. Every temporary a batched operation needs (position buffers,
// liveness flags, flatten/merge buffers) is drawn from a
// tree-owned recycled-scratch arena and returned when the operation
// completes, so steady-state batches allocate almost nothing
// (Config.DisableBufferReuse turns this off for tests).
//
// The paper evaluates a sorted set; the set is the V = struct{}
// instantiation of this tree (NewFromSorted builds one), which costs
// nothing: every value array of an empty struct type is zero bytes.
//
// A batch must be sorted and duplicate-free; the public pbist package
// wraps this contract with optional normalization. A Tree is not safe
// for concurrent use: one batched operation runs at a time and
// parallelism happens inside the operation, which is exactly the
// parallel-batched model of §2.2.
package core

import (
	"sync/atomic"

	"repro/internal/iindex"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TraverseMode selects how inner nodes locate batch keys in their Rep
// arrays during a batched traversal (§4.2 discusses both).
type TraverseMode int

const (
	// TraverseInterpolation performs a per-key interpolation-index
	// search inside a parallel loop (Listing 1.4). Expected O(1) per
	// key on smooth input; this is the mode that achieves
	// O(m·log log n) work and is the default.
	TraverseInterpolation TraverseMode = iota
	// TraverseRank uses the merge-based parallel Rank primitive
	// (§4.1): O(|Rep| + segment) work per node regardless of input
	// distribution. Kept for the ablation experiment A1.
	TraverseRank
)

// DefaultLeafCap is the H that a zero Config.LeafCap selects.
const DefaultLeafCap = 64

// Config carries the tuning constants of the tree; the zero value
// selects defaults matching the paper's suggestions.
type Config struct {
	// LeafCap is H (§3.4): subtrees of at most this many keys are
	// stored as leaf arrays. Default 64 (DefaultLeafCap): at 16, trees
	// of 2^17 to 2^20 keys grew an extra level of 4-rep inner nodes
	// over leaves of about 4 keys (BENCH_leafcap.json).
	LeafCap int
	// RebuildFactor is C (§7.1): a subtree is rebuilt when the number
	// of modifications since its construction exceeds C times its size
	// at construction. Default 2.
	RebuildFactor int
	// IndexSizeFactor scales per-node interpolation-index bucket
	// counts relative to Rep length. Default 1.0.
	IndexSizeFactor float64
	// Traverse selects the batched traversal mode. Default
	// TraverseInterpolation.
	Traverse TraverseMode
	// DisableBufferReuse turns off the tree-owned scratch arena:
	// every internal temporary is then allocated fresh and dropped,
	// as if the arena did not exist. The default (false) recycles
	// scratch buffers across batched operations and rebuilds.
	// Results are identical either way. It is a test switch, for
	// differential tests and allocation comparisons; the public pbist
	// options do not expose it.
	DisableBufferReuse bool
	// Metrics attaches the tree to an observability registry: rebuild
	// events record under "core.rebuild.*" and the arena's retention
	// and hit-rate telemetry registers as live gauges under
	// "core.arena.*" / "core.chunk.*". nil (the default) disables all
	// recording at zero cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.LeafCap <= 0 {
		c.LeafCap = DefaultLeafCap
	}
	if c.RebuildFactor <= 0 {
		c.RebuildFactor = 2
	}
	if c.IndexSizeFactor <= 0 {
		c.IndexSizeFactor = iindex.DefaultSizeFactor
	}
	return c
}

// Tree is a parallel-batched interpolation search tree mapping keys of
// numeric type K to values of type V. Instantiate with V = struct{}
// for a plain sorted set.
type Tree[K iindex.Numeric, V any] struct {
	root *node[K, V]
	cfg  Config
	pool *parallel.Pool
	ar   *treeArena[K, V]
	obs  *coreObs // nil unless cfg.Metrics was set

	// Multi-version state (mvcc.go). mv is nil until EnablePublish;
	// writeGen and dirty are confined to whatever single goroutine runs
	// the batched operations (the combiner, in the published setup) and
	// stay zero/false on never-published trees.
	mv       *mvccState[K, V]
	writeGen uint64
	dirty    bool // mutations since the last publish
	// recycle is set for the length of a write walk that runs
	// sequentially from the root on a publishing tree: only such a
	// walk lets owned() retire replaced nodes into grace and reuse
	// graced ones, which keeps the spares and free stacks confined to
	// the walking goroutine.
	recycle bool

	// rebuiltKeys counts the keys every §7.1 rebuild of this tree has
	// laid down (recordRebuild). Rebuilds fire inside the parallel
	// recursion, hence the atomic; ApplyResolved reports its delta.
	rebuiltKeys atomic.Int64

	// wb is the batch the running write traversal applies, set for the
	// length of that one call. Held here rather than passed down, the
	// write recursion and its parallel closures reach it through t and
	// the call allocates nothing to carry it.
	wb writeBatch[K, V]
}

// node is one IST node (§3.1 plus the bookkeeping of §6–§7). Leaves
// have nil children; inner nodes have len(rep)+1 children, any of which
// may be nil (empty key range). Inner Rep arrays are immutable between
// rebuilds, so their interpolation index stays valid; leaf Rep arrays
// mutate on insertion, carry no index, and are searched with one
// interpolated probe between the separators the parent bounds them by
// (iindex.SearchLeaf), refined by the same walk as an inner node's.
// vals runs parallel to rep: vals[i] is the value of key rep[i]
// (invariant: len(vals) == len(rep)); unlike rep, vals slots of inner
// nodes may be overwritten between rebuilds (value upserts do not
// disturb the interpolation index, which depends only on keys).
type node[K iindex.Numeric, V any] struct {
	rep      []K
	vals     []V
	exists   []bool
	children []*node[K, V]
	idx      iindex.Index
	size     int // live keys in this subtree
	initSize int // live keys when this subtree was (re)built
	modCnt   int // successful updates applied since (re)build

	// gen is the tree write generation this node was created in; a
	// mutation in a later generation copies the node first (mvcc.go).
	// Zero everywhere on never-published trees.
	gen uint64
	// sharedSlots marks an inner path copy whose vals/exists still
	// alias the frozen node it was copied from; ownSlots copies them
	// before the first slot write (mvcc.go).
	sharedSlots bool
	// own marks a node whose header and children array (inner) or
	// rep/vals/exists arrays (leaf) owned() allocated for it alone, so
	// once no reader can reach it the whole node can serve a later
	// path copy (mvcc.go). Chunk- and slab-built nodes never own.
	own bool
	// chunk, set only on the root node of a chunked build, ties the
	// subtree back to its contiguous storage so a rebuild of an
	// enclosing subtree can retire it for reclamation (mvcc.go).
	chunk *chunkHandle[K, V]
}

func (v *node[K, V]) isLeaf() bool { return v.children == nil }

// New returns an empty tree owning a private scratch arena. pool
// bounds the parallelism of batched operations; a nil pool means
// sequential execution.
func New[K iindex.Numeric, V any](cfg Config, pool *parallel.Pool) *Tree[K, V] {
	cfg = cfg.withDefaults()
	t := &Tree[K, V]{
		cfg:  cfg,
		pool: pool,
		ar:   newTreeArena[K, V](cfg.DisableBufferReuse),
		obs:  newCoreObs(cfg.Metrics),
	}
	t.ar.observe(cfg.Metrics)
	return t
}

// NewFromSorted bulk-loads a set (a Tree with struct{} values) from
// sorted duplicate-free keys in O(n) work and polylog span, producing
// an ideally balanced IST (Definition 5). The input slice is not
// retained: buildIdeal copies every key into tree-owned chunk storage
// (arena.Chunk), so the caller may mutate keys afterwards.
func NewFromSorted[K iindex.Numeric](cfg Config, pool *parallel.Pool, keys []K) *Tree[K, struct{}] {
	return NewFromSortedKV(cfg, pool, keys, make([]struct{}, len(keys)))
}

// NewFromSortedKV bulk-loads a tree from sorted duplicate-free keys and
// their values (vals[i] belongs to keys[i]; the slices must have equal
// length). Neither input slice is retained.
func NewFromSortedKV[K iindex.Numeric, V any](cfg Config, pool *parallel.Pool, keys []K, vals []V) *Tree[K, V] {
	if len(keys) != len(vals) {
		panic("core: NewFromSortedKV keys/vals length mismatch")
	}
	t := New[K, V](cfg, pool)
	t.root = t.buildIdeal(keys, vals)
	return t
}

// Pool returns the pool the tree runs its batched operations on.
func (t *Tree[K, V]) Pool() *parallel.Pool { return t.pool }

// SetPool changes the pool used by subsequent operations. It is the
// mechanism behind the worker-count sweep of the Fig. 17 experiments.
func (t *Tree[K, V]) SetPool(pool *parallel.Pool) { t.pool = pool }

// Len reports the number of live keys in the tree.
func (t *Tree[K, V]) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// Keys returns the live keys in ascending order using the parallel
// flatten of §7.2.
func (t *Tree[K, V]) Keys() []K {
	keys, _ := t.flatten(t.root)
	return keys
}

// Items returns the live keys in ascending order together with their
// values, position-aligned, in one parallel flatten.
func (t *Tree[K, V]) Items() ([]K, []V) {
	return t.flatten(t.root)
}

// Contains reports whether key is in the tree: one root-to-leaf walk
// (lookup), allocation-free. Batch many queries through
// ContainsBatched instead.
func (t *Tree[K, V]) Contains(key K) bool {
	_, ok := lookup(t.root, key)
	return ok
}

// Get returns the value stored under key; ok is false when the key is
// absent. Like Contains, it is one root-to-leaf walk.
func (t *Tree[K, V]) Get(key K) (val V, ok bool) {
	return lookup(t.root, key)
}

// Insert is InsertBatched of one key: it stores the zero value under
// key, reporting whether the key was absent.
func (t *Tree[K, V]) Insert(key K) bool {
	return t.InsertBatched([]K{key}) == 1
}

// Put stores val under key (inserting or overwriting), reporting
// whether the key was absent.
func (t *Tree[K, V]) Put(key K, val V) bool {
	return t.PutBatched([]K{key}, []V{val}) == 1
}

// Remove deletes key, reporting whether it was present.
func (t *Tree[K, V]) Remove(key K) bool {
	return t.RemoveBatched([]K{key}) == 1
}

// rebuildDue reports whether applying k more modifications to v would
// exceed the rebuild budget C·InitSize (§7.1).
func (t *Tree[K, V]) rebuildDue(v *node[K, V], k int) bool {
	budget := t.cfg.RebuildFactor * v.initSize
	if budget < t.cfg.RebuildFactor {
		budget = t.cfg.RebuildFactor
	}
	return v.modCnt+k > budget
}
