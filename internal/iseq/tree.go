// Package iseq implements the sequential dynamic Interpolation Search
// Tree of Mehlhorn & Tsakalidis (paper §3): a multiway search tree whose
// nodes carry a sorted Rep array, an Exists bitmap for logical deletion,
// and a lightweight interpolation index. Under µ-random insertions and
// random removals from a smooth distribution µ, searches and updates
// take expected O(log log n) time; the worst case is polylogarithmic
// thanks to amortized subtree rebuilding.
//
// This package is the scalar baseline of the reproduction: the
// parallel-batched tree of internal/core is differentially tested
// against it, and the sequential-throughput experiment (§9) compares it
// with a red-black tree.
package iseq

import (
	"math"

	"repro/internal/iindex"
	"repro/internal/parallel"
)

// Config carries the tuning constants of the tree. The zero value
// selects the defaults, which follow the constants suggested in the
// paper (§3.4, §7.1).
type Config struct {
	// LeafCap is H: subtrees of at most this many keys are stored as
	// leaf nodes (sorted arrays). Default 16.
	LeafCap int
	// RebuildFactor is C: a subtree is rebuilt once the number of
	// modifications applied to it since construction exceeds C times
	// its size at construction. Default 2.
	RebuildFactor int
	// IndexSizeFactor scales each node's interpolation-index bucket
	// count relative to its Rep length. Default 1.0.
	IndexSizeFactor float64
}

func (c Config) withDefaults() Config {
	if c.LeafCap <= 0 {
		c.LeafCap = 16
	}
	if c.RebuildFactor <= 0 {
		c.RebuildFactor = 2
	}
	if c.IndexSizeFactor <= 0 {
		c.IndexSizeFactor = iindex.DefaultSizeFactor
	}
	return c
}

// Tree is a sorted set of numeric keys backed by an interpolation
// search tree. The zero value is not ready to use; construct trees with
// New or NewFromSorted. Tree is not safe for concurrent use.
type Tree[K iindex.Numeric] struct {
	root *node[K]
	cfg  Config
}

// node is one IST node. Leaves have a nil children slice; inner nodes
// have len(rep)+1 children, any of which may be nil (empty subtree).
// Rep contents of inner nodes are immutable between rebuilds — only the
// exists flags change — so the interpolation index stays valid. Leaf rep
// arrays mutate in place and carry no stored index: they are searched
// with core's leaf kernel (iindex.SearchLeaf, one interpolated probe
// between the leaf's end keys plus Find's walk), so the sequential
// baseline is compared on the same leaf search as the PB-IST.
type node[K iindex.Numeric] struct {
	rep      []K
	exists   []bool
	children []*node[K]
	idx      iindex.Index
	size     int // live keys in this subtree
	initSize int // live keys when this subtree was (re)built
	modCnt   int // successful updates applied since (re)build
}

func (v *node[K]) isLeaf() bool { return v.children == nil }

// New returns an empty tree with the given configuration.
func New[K iindex.Numeric](cfg Config) *Tree[K] {
	return &Tree[K]{cfg: cfg.withDefaults()}
}

// NewFromSorted returns a tree over the given sorted duplicate-free
// keys, built ideally balanced (Definition 5). It costs O(n) time. The
// input slice is not retained.
func NewFromSorted[K iindex.Numeric](cfg Config, keys []K) *Tree[K] {
	t := New[K](cfg)
	t.root = t.buildIdeal(keys)
	return t
}

// Len reports the number of live keys in the set.
func (t *Tree[K]) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// Contains reports whether key is in the set (§3.3, Listing 1.1).
func (t *Tree[K]) Contains(key K) bool {
	v := t.root
	for v != nil {
		pos, found := v.find(key)
		if found {
			return v.exists[pos]
		}
		if v.isLeaf() {
			return false
		}
		v = v.children[pos]
	}
	return false
}

// find locates key in v.rep, returning its lower-bound position and
// whether rep[pos] == key. The lower-bound position doubles as the
// child index to descend into when the key is absent from rep: child
// pos holds exactly the keys between rep[pos-1] and rep[pos].
func (v *node[K]) find(key K) (int, bool) {
	if v.isLeaf() {
		return iindex.SearchLeaf(v.rep, math.Inf(-1), math.Inf(1), key)
	}
	return iindex.Find(v.rep, &v.idx, key)
}

// Insert adds key to the set. It reports true if the key was absent and
// has been added, false if the set already contained it (§3.4).
func (t *Tree[K]) Insert(key K) bool {
	if t.Contains(key) {
		return false
	}
	t.root = t.insert(t.root, key)
	return true
}

// insert adds key — known to be logically absent — to subtree v and
// returns the possibly replaced subtree root.
func (t *Tree[K]) insert(v *node[K], key K) *node[K] {
	if v == nil {
		return &node[K]{
			rep:      []K{key},
			exists:   []bool{true},
			size:     1,
			initSize: 1,
		}
	}
	if t.rebuildDue(v, 1) {
		keys := appendLive(v, make([]K, 0, v.size+1))
		pos := parallel.LowerBound(keys, key)
		keys = append(keys, key)
		copy(keys[pos+1:], keys[pos:])
		keys[pos] = key
		return t.buildIdeal(keys)
	}
	v.modCnt++
	v.size++
	pos, found := v.find(key)
	switch {
	case found:
		// Physically present but logically removed: revive (§6,
		// Fig. 13).
		v.exists[pos] = true
	case v.isLeaf():
		v.rep = insertAt(v.rep, pos, key)
		v.exists = insertAt(v.exists, pos, true)
	default:
		v.children[pos] = t.insert(v.children[pos], key)
	}
	return v
}

// Remove deletes key from the set. It reports true if the key was
// present and has been removed, false otherwise. Removal is logical
// (§3.4): the key is marked in its node's Exists array and reclaimed at
// the next rebuild of an enclosing subtree.
func (t *Tree[K]) Remove(key K) bool {
	if !t.Contains(key) {
		return false
	}
	t.root = t.remove(t.root, key)
	return true
}

// remove deletes key — known to be logically present — from subtree v.
func (t *Tree[K]) remove(v *node[K], key K) *node[K] {
	if t.rebuildDue(v, 1) {
		keys := appendLive(v, make([]K, 0, v.size))
		pos := parallel.LowerBound(keys, key)
		copy(keys[pos:], keys[pos+1:])
		keys = keys[:len(keys)-1]
		return t.buildIdeal(keys)
	}
	v.modCnt++
	v.size--
	pos, found := v.find(key)
	if found {
		v.exists[pos] = false
		return v
	}
	v.children[pos] = t.remove(v.children[pos], key)
	return v
}

// rebuildDue reports whether applying k more modifications to v would
// exceed the rebuild budget C·InitSize (§7.1).
func (t *Tree[K]) rebuildDue(v *node[K], k int) bool {
	budget := t.cfg.RebuildFactor * v.initSize
	if budget < t.cfg.RebuildFactor {
		budget = t.cfg.RebuildFactor // nodes built empty still get slack
	}
	return v.modCnt+k > budget
}

// Keys returns the live keys of the set in ascending order.
func (t *Tree[K]) Keys() []K {
	if t.root == nil {
		return nil
	}
	return appendLive(t.root, make([]K, 0, t.root.size))
}

// insertAt inserts x at position pos of s, shifting the tail right.
func insertAt[T any](s []T, pos int, x T) []T {
	var zero T
	s = append(s, zero)
	copy(s[pos+1:], s[pos:])
	s[pos] = x
	return s
}

// appendLive appends the live keys of subtree v to out in ascending
// order (the sequential form of §7.2's flatten).
func appendLive[K iindex.Numeric](v *node[K], out []K) []K {
	if v == nil {
		return out
	}
	if v.isLeaf() {
		for i, x := range v.rep {
			if v.exists[i] {
				out = append(out, x)
			}
		}
		return out
	}
	for i := range v.rep {
		out = appendLive(v.children[i], out)
		if v.exists[i] {
			out = append(out, v.rep[i])
		}
	}
	return appendLive(v.children[len(v.rep)], out)
}

// buildIdeal constructs an ideally balanced IST (Definition 5) over the
// sorted duplicate-free keys: O(n) time, O(log log n) resulting height.
//
// Note on child boundaries: §7.3 of the paper spaces Rep elements k
// apart (k = ⌊√m⌋−1), which only covers the whole input when m is an
// exact square; Definition 5 asks for *equally spaced* Rep elements. We
// take the Definition 5 reading: k = ⌊√m⌋ rep slots at positions
// (i+1)·m/(k+1), giving k+1 children of ≈ m/(k+1) = Θ(√m) keys each.
func (t *Tree[K]) buildIdeal(keys []K) *node[K] {
	m := len(keys)
	if m == 0 {
		return nil
	}
	if m <= t.cfg.LeafCap {
		v := &node[K]{
			rep:      append(make([]K, 0, m), keys...),
			exists:   allTrue(m),
			size:     m,
			initSize: m,
		}
		return v
	}
	k := int(math.Sqrt(float64(m)))
	if k < 2 {
		k = 2
	}
	v := &node[K]{
		rep:      make([]K, k),
		exists:   allTrue(k),
		children: make([]*node[K], k+1),
		size:     m,
		initSize: m,
	}
	prev := 0
	for i := 0; i < k; i++ {
		p := (i + 1) * m / (k + 1)
		v.rep[i] = keys[p]
		v.children[i] = t.buildIdeal(keys[prev:p])
		prev = p + 1
	}
	v.children[k] = t.buildIdeal(keys[prev:])
	v.idx = iindex.Build(v.rep, t.cfg.IndexSizeFactor)
	return v
}

func allTrue(n int) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = true
	}
	return s
}
