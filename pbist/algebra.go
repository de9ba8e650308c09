package pbist

import "repro/internal/core"

// Whole-tree set algebra: Union, Intersect, DiffTree, SymDiff, Split,
// and Join combine two trees (or maps) into new ones, never mutating
// an operand. Each operation flattens both operands in parallel,
// combines the sorted arrays with one blocked set-algebra kernel, and
// rebuilds an ideally balanced result — O(n₁+n₂) work, polylogarithmic
// span, and a result in the best shape for subsequent batches. Results
// carry the receiver's configuration, worker pool, and normalization
// policy.
//
// The value-carrying variants on Map take a MergePolicy choosing which
// operand's value survives on keys present in both.

// MergePolicy selects which operand's value wins for a key present in
// both operands of a value-carrying Union or Intersect.
type MergePolicy int

const (
	// LeftWins keeps the receiver's value on common keys.
	LeftWins MergePolicy = iota
	// RightWins takes the argument's value on common keys.
	RightWins
)

// String names the policy for logs and table output.
func (pol MergePolicy) String() string {
	if pol == RightWins {
		return "right-wins"
	}
	return "left-wins"
}

// wrap dresses a core result tree in a set view sharing the receiver's
// pool and batch-normalization policy.
func (tr *Tree[K]) wrap(ct *core.Tree[K, struct{}]) *Tree[K] {
	out := &Tree[K]{}
	out.t = ct
	out.pool = tr.pool
	out.assumeSorted = tr.assumeSorted
	return out
}

// Union returns a new set holding every key of tr and other: A ∪ B.
// Neither operand is modified.
func (tr *Tree[K]) Union(other *Tree[K]) *Tree[K] {
	return tr.wrap(tr.t.Union(other.t, true))
}

// Intersect returns a new set holding the keys present in both tr and
// other: A ∩ B. Neither operand is modified.
func (tr *Tree[K]) Intersect(other *Tree[K]) *Tree[K] {
	return tr.wrap(tr.t.Intersect(other.t, false))
}

// DiffTree returns a new set holding the keys of tr that are not in
// other: A \ B. Neither operand is modified. (Difference is the
// slice-operand variant of the same operation.)
func (tr *Tree[K]) DiffTree(other *Tree[K]) *Tree[K] {
	return tr.wrap(tr.t.DifferenceTree(other.t))
}

// SymDiff returns a new set holding the keys present in exactly one of
// tr and other: A △ B. Neither operand is modified.
func (tr *Tree[K]) SymDiff(other *Tree[K]) *Tree[K] {
	return tr.wrap(tr.t.SymmetricDifference(other.t))
}

// Split partitions the set by key into two new sets: left holds the
// keys < key, right the keys >= key. The receiver is not modified.
func (tr *Tree[K]) Split(key K) (left, right *Tree[K]) {
	cl, cr := tr.t.Split(key)
	return tr.wrap(cl), tr.wrap(cr)
}

// Join returns a new set holding every key of tr and other, requiring
// every key of tr to be strictly smaller than every key of other (the
// inverse of Split). It panics when the ranges touch or overlap; use
// Union for arbitrary operands. Neither operand is modified.
func (tr *Tree[K]) Join(other *Tree[K]) *Tree[K] {
	return tr.wrap(tr.t.Join(other.t))
}

// wrap dresses a core result tree in a map view sharing the receiver's
// pool and batch-normalization policy.
func (m *Map[K, V]) wrap(ct *core.Tree[K, V]) *Map[K, V] {
	out := &Map[K, V]{}
	out.t = ct
	out.pool = m.pool
	out.assumeSorted = m.assumeSorted
	return out
}

// Union returns a new map holding every key of m and other. On keys
// present in both, policy picks the surviving value: LeftWins keeps
// m's, RightWins takes other's. Neither operand is modified.
func (m *Map[K, V]) Union(other *Map[K, V], policy MergePolicy) *Map[K, V] {
	return m.wrap(m.t.Union(other.t, policy == RightWins))
}

// Intersect returns a new map holding the keys present in both m and
// other, with values chosen by policy. Neither operand is modified.
func (m *Map[K, V]) Intersect(other *Map[K, V], policy MergePolicy) *Map[K, V] {
	return m.wrap(m.t.Intersect(other.t, policy == RightWins))
}

// DiffTree returns a new map holding the pairs of m whose key is not
// in other. Neither operand is modified.
func (m *Map[K, V]) DiffTree(other *Map[K, V]) *Map[K, V] {
	return m.wrap(m.t.DifferenceTree(other.t))
}

// SymDiff returns a new map holding the pairs whose key is present in
// exactly one of m and other; each pair keeps the value of the operand
// it came from, so no policy is needed. Neither operand is modified.
func (m *Map[K, V]) SymDiff(other *Map[K, V]) *Map[K, V] {
	return m.wrap(m.t.SymmetricDifference(other.t))
}

// Split partitions the map by key into two new maps: left holds the
// pairs with key < key, right those with key >= key. The receiver is
// not modified.
func (m *Map[K, V]) Split(key K) (left, right *Map[K, V]) {
	cl, cr := m.t.Split(key)
	return m.wrap(cl), m.wrap(cr)
}

// Join returns a new map holding every pair of m and other, requiring
// every key of m to be strictly smaller than every key of other (the
// inverse of Split). It panics when the ranges touch or overlap; use
// Union for arbitrary operands. Neither operand is modified.
func (m *Map[K, V]) Join(other *Map[K, V]) *Map[K, V] {
	return m.wrap(m.t.Join(other.t))
}
