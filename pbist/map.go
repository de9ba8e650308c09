package pbist

import (
	"iter"
	"slices"

	"repro/internal/core"
	"repro/internal/parallel"
)

// Map is the map view: a parallel-batched interpolation search tree
// associating a value of type V with every key. It shares the engine,
// Options, Stats, and worker control of the set view; the batched
// operations (GetBatch, PutBatch, DeleteBatch) run through the same
// parallel-batched traversal with values riding alongside the keys,
// never through a per-key loop. Create one with NewMap or
// NewMapFromItems.
type Map[K Key, V any] struct {
	view[K, V]
}

// NewMap returns an empty map.
func NewMap[K Key, V any](opts Options) *Map[K, V] {
	p := opts.pool()
	m := &Map[K, V]{}
	m.t = core.New[K, V](opts.coreConfig(), p)
	m.pool = p
	m.assumeSorted = opts.AssumeSorted
	return m
}

// NewMapFromItems returns a map containing the (keys[i], vals[i])
// pairs, bulk-loaded in O(n) work into an ideally balanced shape. The
// slices must have equal length; when a key occurs more than once the
// last occurrence wins, matching PutBatch. Neither input slice is
// retained — even on the already-sorted (or AssumeSorted) fast path,
// construction copies every key and value into tree-owned chunk
// storage — and the keys need not be sorted (unless
// Options.AssumeSorted, in which case they must be sorted and
// duplicate-free).
func NewMapFromItems[K Key, V any](opts Options, keys []K, vals []V) *Map[K, V] {
	if len(keys) != len(vals) {
		panic("pbist: NewMapFromItems keys/vals length mismatch")
	}
	p := opts.pool()
	m := &Map[K, V]{}
	m.pool = p
	m.assumeSorted = opts.AssumeSorted
	nk, nv := normalizePairs(p, opts.AssumeSorted, keys, vals)
	m.t = core.NewFromSortedKV(opts.coreConfig(), p, nk, nv)
	return m
}

// normalizePairs returns the batch as sorted duplicate-free key/value
// slices with last-wins semantics for duplicated keys, copying only
// when the input is not already in contract form (assumeSorted
// promises it is). Like normalize, passing pre-sorted input through
// unaliased is safe because the core never retains a batch slice. It
// panics on a NaN key (see Key).
//
// Unlike the set view's key-only normalization, the pair sort is a
// sequential index sort (a parallel stable pair sort is not worth its
// complexity here): hot paths feeding large unsorted upsert batches
// should pre-sort and set Options.AssumeSorted, which skips this
// entirely.
func normalizePairs[K Key, V any](pool *parallel.Pool, assumeSorted bool, keys []K, vals []V) ([]K, []V) {
	if assumeSorted || isSortedUnique(pool, keys) {
		return keys, vals
	}
	// Stable-sort a permutation by key: within a run of equal keys the
	// original order survives, so the last element of the run is the
	// last occurrence in the input — the one PutBatch semantics keep.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[b] < keys[a]:
			return 1
		default:
			return 0
		}
	})
	outK := make([]K, 0, len(keys))
	outV := make([]V, 0, len(vals))
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && keys[idx[j]] == keys[idx[i]] {
			j++
		}
		last := idx[j-1] // last original position of this key run
		outK = append(outK, keys[last])
		outV = append(outV, vals[last])
		i = j
	}
	return outK, outV
}

// Clone returns a deep, fully detached copy of the map: one parallel
// flatten plus one chunked ideal rebuild, sharing the receiver's
// options and worker pool but nothing else — mutations on either side
// (including value overwrites) are never visible through the other.
// Values are copied by assignment: for pointer-typed V both maps
// share the pointed-to data, as with any shallow value copy. The
// clone is ideally balanced even when the receiver is mid-churn, so
// Clone doubles as compaction.
func (m *Map[K, V]) Clone() *Map[K, V] {
	cp := &Map[K, V]{}
	cp.t = m.t.Clone()
	cp.pool = m.pool
	cp.assumeSorted = m.assumeSorted
	return cp
}

// Get returns the value stored under key; ok is false when the key is
// absent.
func (m *Map[K, V]) Get(key K) (val V, ok bool) { return m.t.Get(key) }

// Put stores val under key, inserting or overwriting; it reports
// whether the key was absent. It panics on a NaN key (see Key).
func (m *Map[K, V]) Put(key K, val V) bool {
	checkKey(key)
	return m.t.Put(key, val)
}

// Delete removes key, reporting whether it was present. It panics on
// a NaN key (see Key).
func (m *Map[K, V]) Delete(key K) bool {
	checkKey(key)
	return m.t.Remove(key)
}

// GetBatch fetches the value for every element of keys in one batched
// traversal: vals[i] and found[i] correspond to keys[i], whatever the
// input order, and duplicate inputs each receive their (identical)
// answer. Absent keys report the zero value and found[i] == false.
func (m *Map[K, V]) GetBatch(keys []K) (vals []V, found []bool) {
	return m.readBatch(keys, true)
}

// PutBatch upserts every (keys[i], vals[i]) pair in one batched
// traversal and returns how many keys were newly inserted (as opposed
// to overwritten). The slices must have equal length. When a key
// occurs more than once in the batch, the last occurrence wins —
// PutBatch behaves like assigning the pairs to a builtin map in input
// order.
func (m *Map[K, V]) PutBatch(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("pbist: PutBatch keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0
	}
	nk, nv := normalizePairs(m.pool, m.assumeSorted, keys, vals)
	return m.t.PutBatched(nk, nv)
}

// DeleteBatch removes every element of keys, returning how many were
// actually present.
func (m *Map[K, V]) DeleteBatch(keys []K) int { return m.removeBatch(keys) }

// Min returns the smallest key and its value; ok is false when empty.
func (m *Map[K, V]) Min() (key K, val V, ok bool) { return m.t.Min() }

// Max returns the largest key and its value; ok is false when empty.
func (m *Map[K, V]) Max() (key K, val V, ok bool) { return m.t.Max() }

// Select returns the idx-th smallest key (0-based) and its value; ok
// is false when idx is out of range.
func (m *Map[K, V]) Select(idx int) (key K, val V, ok bool) { return m.t.Select(idx) }

// Range returns the keys in [lo, hi] in ascending order along with
// their values, position-aligned.
func (m *Map[K, V]) Range(lo, hi K) ([]K, []V) { return m.t.RangeKV(lo, hi) }

// Items returns every (key, value) pair, keys ascending and values
// position-aligned, in one parallel flatten.
func (m *Map[K, V]) Items() ([]K, []V) { return m.t.Items() }

// All returns an in-order iterator over every (key, value) pair.
func (m *Map[K, V]) All() iter.Seq2[K, V] { return m.t.All() }

// Ascend returns an in-order iterator over the (key, value) pairs
// with lo <= key <= hi.
func (m *Map[K, V]) Ascend(lo, hi K) iter.Seq2[K, V] { return m.t.Ascend(lo, hi) }
